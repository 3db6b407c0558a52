import collections
import json
import math
import random
import re
from fractions import Fraction

import pytest

import oracles
from qzeta import (
    DEFAULT_SEED,
    LEMMA_PARTS,
    THETA,
    QContext,
    all_passed,
    classical_battery,
    family_equivalence,
    family_instances,
    head_reduction_pattern,
    inverse_power_pattern,
    lemma_suite,
    rational_repr,
    run_family,
    sample_compositions,
    symmetric_pair_check,
    verify_classical,
    verify_mhs,
    verify_qmzsv,
)
from qzeta import evaluators
from qzeta.verify import VerificationReport


def _lemma_parts(**kwargs) -> dict:
    """The reports of the full lemma suite, by case."""
    return {rep.case: rep for rep in lemma_suite(**kwargs)}


def test_rational_repr():
    assert rational_repr(Fraction(3, 7)) == "3/7"
    assert rational_repr(Fraction(-5)) == "-5"
    huge = Fraction(17, 10 ** 400)
    text = rational_repr(huge)
    assert "E-" in text and len(text) < 40
    assert text.partition("E")[2] == "-399"
    assert abs(Fraction(text.replace("E", "e")) / huge - 1) < Fraction(1, 10**10)


def test_rational_repr_matches_decimal_division():
    values = []
    # ties at the 13th digit (both parities), carries to 13 digits, values
    # next to powers of ten, exact quotients, over a range of exponents
    mantissas = (
        1234567890125, 1234567890135, 9999999999995, 9999999999985,
        9999999999994, 10**12 - 1, 10**12, 10**12 + 1, 10**11, 10**13 - 1, 5, 1,
    )
    for e in range(-60, 60, 7):
        for m in mantissas:
            for x in (Fraction(m) * Fraction(10) ** e, Fraction(m, 3**70) * Fraction(10) ** e):
                values += [x, -x]
    rng = random.Random(5)
    for _ in range(2000):
        num = rng.getrandbits(rng.randint(1, 300)) * rng.choice((1, -1))
        values.append(Fraction(num, rng.getrandbits(rng.randint(1, 300)) + 1))
    # report values of the size a certified series check produces: exact
    # partial sums of a weak zeta star value at the truncations of two eps
    q, entries = Fraction(1, 2), [(2, 1), (1, 1), (1, 1), (3, 1), (1, 1)]
    K, tail_bound = evaluators._harmonic_truncation(q, 5, Fraction(1, 10**25))
    lhs = oracles.harmonic_series_nested(q, entries, K, star=True)
    K, _ = evaluators._harmonic_truncation(q, 5, Fraction(1, 10**24))
    rhs = oracles.harmonic_series_nested(q, entries, K, star=True)
    values += [lhs, -lhs, lhs - rhs, tail_bound, 1 / lhs]
    for x in values:
        assert rational_repr(x) == oracles.report_text(x), x


def _ball(v: Fraction, rad: int, prec: int = 300):
    from qzeta.evaluators import Ball

    return Ball(math.floor(v * 2**prec), rad, prec)


def test_ball_repr_is_the_text_of_every_value_inside():
    from qzeta.verify import _ball_repr

    # a compact rational, a point of the 12th-digit grid and a tie half way
    # between two of its points: a ball around one of them cannot tell
    grid = Fraction(123456789012, 10**40)
    for v in (Fraction(3, 7), Fraction(1, 10**29), grid, grid + Fraction(1, 2 * 10**40)):
        assert _ball_repr(_ball(v, 4)) is None, v
    assert _ball_repr(_ball(Fraction(0), 5)) is None
    rng = random.Random(3)
    told = 0
    for _ in range(400):
        num, den = rng.getrandbits(rng.randint(60, 200)), rng.getrandbits(rng.randint(100, 280))
        v = Fraction(num, den + 1)
        ball = _ball(v, rng.choice((1, 2**40, 2**150, 2**200)))
        text = _ball_repr(ball)
        if text is not None:
            told += 1
            lo, hi = ball.bounds()
            assert [rational_repr(w) for w in (v, lo, hi)] == [text] * 3, v
    assert 100 < told < 400


def test_numeric_report_from_balls_only_when_they_decide():
    from qzeta.verify import _numeric_report

    eps = Fraction(1, 10**25)

    def report(disc, tail):
        rep = _numeric_report(0.0, "c", "f", {}, Fraction(1, 2), eps, disc, tail)
        return None if rep is None else {**rep.to_dict(), "elapsed_ms": None}

    tail = Fraction(10**5 + 1, 3 * 10**31)
    for disc in (Fraction(7, 3 * 10**33), Fraction(7 * 10**7 + 1, 3 * 10**31)):
        # the report the exact values give
        exact = VerificationReport(
            "c", "f", {}, "numeric-pass" if disc <= eps else "fail", "1/2",
            discrepancy=rational_repr(disc), tail_bound=rational_repr(tail), elapsed_ms=None,
        ).to_dict()
        assert report(_ball(disc, 2**40), tail) == exact
        assert report(_ball(disc, 2**40), _ball(tail, 2**40)) == exact
    assert exact["status"] == "fail"
    # a ball across eps cannot tell pass from fail (eps is not compact here,
    # so the text of the discrepancy alone would be told), nor one around a
    # compact tail its text
    eps = Fraction(1, 3 * 10**40)
    assert report(_ball(eps, 2**40), tail) is None
    assert report(_ball(eps * 2, 2**40), tail)["status"] == "fail"
    assert report(_ball(Fraction(7, 3 * 10**33), 2**40), _ball(Fraction(1, 10**26), 2**40)) is None


def test_numeric_report_decides_a_discrepancy_of_exactly_eps():
    # the rule is |lhs - rhs| <= eps, on eps = 2**-110: dyadic, so a ball's
    # end can sit on it exactly, and not compact (its denominator is above
    # 10**30), so the ball's text can be decided.  A ball whose high end is
    # eps passes; one whose low end is eps holds eps and values above it,
    # so it cannot tell pass from fail; one unit further each way, the
    # first straddles eps and the second fails
    from qzeta.evaluators import Ball
    from qzeta.verify import _numeric_report

    eps, tail = Fraction(1, 2**110), Fraction(1, 10**40)

    def report(mid):
        rep = _numeric_report(0.0, "c", "f", {}, Fraction(1, 2), eps, Ball(mid, 3, 300), tail)
        return None if rep is None else (rep.status, rep.discrepancy)

    edge = 1 << 190  # eps at 2**-300
    assert report(edge - 3) == ("numeric-pass", "7.70371977755E-34")
    assert report(edge + 3) is None
    assert report(edge - 2) is None
    assert report(edge + 4) == ("fail", "7.70371977755E-34")


def test_kernel_patterns_refuse_a_power_below_their_range():
    # -1/[n]**c needs c >= 0, and a head reduction pulls in c >= 1 factors
    from qzeta import Triple, bar, idx

    with pytest.raises(ValueError, match="need c >= 0, got -1"):
        inverse_power_pattern(-1)
    assert inverse_power_pattern(0) == Triple((bar(0),), (0,), (1,))
    with pytest.raises(ValueError, match="need c >= 1, got 0"):
        head_reduction_pattern(idx(2), 1, 0, THETA)
    assert head_reduction_pattern(idx(2), 1, 1, THETA) == Triple((bar(0), bar(3)), (0, 1), (1, THETA))


def test_report_json_round_trip():
    # one report from each builder: every one writes the same 11 keys
    reports = {
        "finite": verify_mhs((2, 1), n_max=6),
        "q-series": verify_qmzsv((2, 1)),
        "classical": verify_classical((2, 1), K=10**4),
        "symmetric-pair": symmetric_pair_check(0, 0),
        "lemma": _lemma_parts(n_max=2, samples=2)["head-reduction"],
        "family": family_equivalence("twos", 6),
    }
    for name, rep in reports.items():
        assert rep.passed, name
        text = rep.to_json()
        data = json.loads(text)
        assert json.dumps(data, indent=2, sort_keys=True) == text, name
        assert set(data) == {
            "case",
            "family",
            "params",
            "q",
            "n_range",
            "status",
            "residuals",
            "discrepancy",
            "tail_bound",
            "seed",
            "elapsed_ms",
        }, name
        # a bool read as a size or an entry would print as true or false
        values = list(data["n_range"] or [])
        for value in data["params"].values():
            values.extend(value if isinstance(value, list) else [value])
        assert not any(isinstance(value, bool) for value in values), (name, values)
    assert reports["finite"].status == "exact-pass"
    assert reports["finite"].discrepancy == "0"


def test_verify_mhs_multi_q():
    rep = verify_mhs((1, 1, 3), n_max=8, q_values=(Fraction(1, 2), Fraction(2, 3)))
    assert rep.passed
    assert rep.status == "exact-pass"


def test_verify_mhs_refuses_an_empty_q_list_before_any_sum(monkeypatch):
    # with no q the report would pass with no check
    import qzeta.evaluators
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    monkeypatch.setattr(v, "_mhs_rows", never)
    for q_values in ((), []):
        with pytest.raises(ValueError, match="at least one q"):
            v.verify_mhs((2, 1), n_max=3, q_values=q_values)
    # the patches are live: a q reaches a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        v.verify_mhs((2, 1), n_max=3)


def test_a_repeated_q_is_refused_before_any_sum(monkeypatch):
    # 2/4 and 0.5 read as 1/2, which would be checked twice
    import qzeta.evaluators
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    for name in ("_mhs_rows", "_kernel_sum", "family_equivalence"):
        monkeypatch.setattr(v, name, never)
    for q_values, q in (
        ((Fraction(1, 2), "2/4"), "1/2"),
        (["1/3", "0.5", Fraction(1, 2)], "1/2"),
        ((Fraction(2, 3),) * 2, "2/3"),
    ):
        for call in (
            lambda: v.verify_mhs((2, 1), n_max=3, q_values=q_values),
            lambda: v.run_family("2c2", max_weight=4, n_max=3, q_values=q_values),
            lambda: v.lemma_suite(n_max=3, q_values=q_values),
        ):
            with pytest.raises(ValueError, match=f"^q_values gives q = {q} more than once$"):
                call()
    # the patches are live: distinct q reach a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        v.verify_mhs((2, 1), n_max=3, q_values=("1/2", "1/3"))


def test_verify_mhs_detects_corruption(monkeypatch):
    import qzeta.verify as v
    from qzeta import Compiled

    real = v.compose

    def crooked(comp):
        d, pat = real(comp)
        return Compiled(-d, pat)

    monkeypatch.setattr(v, "compose", crooked)
    rep = v.verify_mhs((2, 1), n_max=5)
    assert not rep.passed
    assert rep.status == "fail"
    assert rep.residuals
    assert Fraction(rep.discrepancy) > 0


def test_verify_mhs_never_expands(monkeypatch):
    import qzeta.expansion
    import qzeta.verify as v

    def refuse(pattern):
        raise AssertionError("the verify path must not build the expansion")

    monkeypatch.setattr(qzeta.expansion, "iter_expansion", refuse)
    # 9,9,9 compiles to a 22-slot pattern: 2**21 resolutions
    rep = v.verify_mhs((9, 9, 9), n_max=6)
    assert rep.passed
    assert rep.params["terms"] == 2**21
    assert rep.params["checks"] == 7
    rep = v.verify_qmzsv((9, 9, 9))
    assert rep.status == "numeric-pass"
    assert rep.params["series"] == 1 + 2**21
    assert all_passed(v.qmzsv_battery(small=True))
    # the classical right side is one resolved series, however deep
    rep = v.verify_classical((9, 9, 9), K=10**4)
    assert rep.status == "numeric-pass"
    assert rep.params["terms"] == 2**21
    assert all_passed(v.classical_battery())
    reps = v.lemma_suite(n_max=8, samples=4)
    assert [r.case for r in reps] == list(LEMMA_PARTS)
    assert all_passed(reps)


def test_verify_mhs_detects_perturbed_delta(monkeypatch):
    import qzeta.verify as v
    from qzeta import Compiled

    real = v.compose

    def nudged(comp):
        d, pat = real(comp)
        return Compiled(d * (1 + Fraction(1, 10**40)), pat)

    monkeypatch.setattr(v, "compose", nudged)
    for comp in ((9, 9, 9), (2, 1, 1, 3, 1)):
        rep = v.verify_mhs(comp, n_max=6)
        assert rep.status == "fail"
        # every n >= 1 carries a nonzero right-hand side, so every one fails
        assert len(rep.residuals) == 6
        assert Fraction(rep.discrepancy) > 0


def test_verify_mhs_failure_reports_exact_residuals(monkeypatch):
    # with the sign flipped, or halved, every n >= 1 fails; the residual
    # lines and the discrepancy must show lhs - delta * rhs itself, built
    # here by brute force
    import qzeta.verify as v
    from qzeta import Compiled, compose, expand

    n_max = 6
    qs = (Fraction(2, 9), Fraction(7, 8))
    for comp in ((2, 1, 1, 3, 1), (3, 2)):
        d, pattern = compose(comp)
        sides = []
        for q in qs:
            lhs = oracles.harmonic_all_n(q, [(e, 1) for e in comp], n_max, star=True)
            rhs = [Fraction(0)] * (n_max + 1)
            for triple in expand(pattern):
                slots = [
                    ((e.magnitude, e.sign), t, None if r is THETA else r)
                    for e, t, r in zip(triple.s, triple.t, triple.r)
                ]
                for n, value in enumerate(oracles.mollified_all_n(q, slots, n_max)):
                    rhs[n] += value
            sides.append((q, lhs, rhs))
        for scale in (-1, Fraction(1, 2)):
            monkeypatch.setattr(v, "compose", lambda c, fixed=Compiled(scale * d, pattern): fixed)
            lines, worst = [], Fraction(0)
            for q, lhs, rhs in sides:
                for n in range(n_max + 1):
                    res = lhs[n] - scale * d * rhs[n]
                    if res:
                        lines.append(f"q={q} n={n}: {rational_repr(res)}")
                        worst = max(worst, abs(res))
            rep = v.verify_mhs(comp, n_max=n_max, q_values=qs)
            assert rep.status == "fail"
            assert len(lines) == 2 * n_max
            assert rep.residuals == lines
            assert rep.discrepancy == rational_repr(worst)
            assert rep.params["checks"] == 2 * (n_max + 1)


def _full_fraction_report(residuals) -> tuple:
    """The residual lines and the discrepancy verify_mhs must report for
    residuals (q, n, lhs - delta * rhs) taken over full Fractions."""
    lines = [f"q={q} n={n}: {rational_repr(res)}" for q, n, res in residuals if res]
    worst = max((abs(res) for _, _, res in residuals), default=Fraction(0))
    return lines, rational_repr(worst)


def test_factored_comparison_is_the_full_cross_multiplication(monkeypatch):
    # verify_mhs compares the rows at the scale both sides share, L_n**w
    # implied and the common b-power cancelled; its verdict, residual lines
    # and discrepancy must be those of lhs - delta * rhs over the full
    # denominators: on passing rows, on failing ones (delta flipped or
    # halved), at n_max = 0, and with a compose whose pattern has another
    # weight, where the lighter side takes the missing power of L_n
    import qzeta.verify as v
    from qzeta import Compiled, SignedIndex, Triple, compose, mhs_many, pattern_mhs_many
    from qzeta.evaluators import _mhs_rows, _pattern_rows
    from qzeta.indices import signed_string

    rng = random.Random(33)
    qs = (Fraction(1, 2), Fraction(2, 7), Fraction(5, 8), Fraction(9, 10))
    shift_pool = [THETA, 1, -1, 0, 2, -2, 3]
    excess_b, excess_l = set(), set()
    for trial in range(32):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 4)))
        d, pattern = compose(comp)
        kind = trial % 4
        if kind == 1:
            d = -d
        elif kind == 2:
            d = d * Fraction(1, 2)
        elif kind == 3:
            m = rng.randint(1, 4)
            pattern = Triple(
                tuple(SignedIndex(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(m)),
                tuple(rng.randint(0, 3) for _ in range(m)),
                tuple(rng.choice(shift_pool) for _ in range(m)),
            )
        n_max = (0, 1, 2, rng.randint(3, 14))[trial // 4 % 4]
        q_values = (qs[trial % 4],) if trial % 3 else (qs[trial % 4], qs[(trial + 1) % 4])
        residuals = []
        for q in q_values:
            ctx = QContext(q)
            lhs = mhs_many(ctx, comp, n_max, star=True)
            rhs = pattern_mhs_many(ctx, pattern, n_max)
            residuals += [(q, n, lhs[n] - d * rhs[n]) for n in range(n_max + 1)]
            rows = zip(
                _mhs_rows(ctx, signed_string(comp), n_max, True), _pattern_rows(ctx, pattern, n_max)
            )
            excess_b.update((r_e > l_e) - (r_e < l_e) for (_, _, l_e), (_, _, r_e) in rows)
            excess_l.add((pattern.weight > sum(comp)) - (pattern.weight < sum(comp)))
        monkeypatch.setattr(v, "compose", lambda c, fixed=Compiled(d, pattern): fixed)
        rep = v.verify_mhs(comp, n_max=n_max, q_values=q_values)
        lines, discrepancy = _full_fraction_report(residuals)
        assert rep.status == ("fail" if lines else "exact-pass"), (comp, d, pattern, q_values)
        assert rep.residuals == lines[: v._RESIDUAL_CAP], (comp, d, pattern, q_values)
        assert rep.discrepancy == discrepancy
        assert rep.params["checks"] == len(q_values) * (n_max + 1)
        assert kind != 0 or rep.passed
        assert kind == 0 or n_max == 0 or not rep.passed
    # every way the two scales can differ was met
    assert excess_b == excess_l == {-1, 0, 1}


def test_factored_comparison_reads_rows_at_any_scale(monkeypatch):
    # right rows rewritten over other scales, each row read as
    # num / (L_n**w * c * b**e) with w the weight of the pattern compose
    # gives: a numerator times b over b**(e+1), a cofactor times b over
    # b**(e-1), and a pattern of weight w +- 1 with the numerator or the
    # cofactor times L_n keep every value; the same scales with the
    # numerator and cofactor left as they were, or with the factor on the
    # other one, move every value with n >= 2.  Each report must be that
    # of lhs - delta * rhs over the full denominators: the comparison
    # raises the lighter side by the b- or L-power it lacks, and a check
    # that skipped or reversed either would pass a row whose value moved.
    # Only a failing row reads its two rows as values, so a comparison that
    # called equal rows unequal shows too, though their residual is 0.  Each
    # case runs again with the left rows over a cofactor 3 (numerator and
    # cofactor times 3, the same values), so a comparison that dropped the
    # left cofactor or multiplied it into the wrong side shows too
    import dataclasses

    import qzeta.verify as v
    from qzeta import Compiled, compose, mhs_many
    from qzeta.evaluators import _pattern_rows

    def reweighted(pattern, step):
        s = list(pattern.s)
        i = next(i for i, e in enumerate(s) if e.magnitude + step >= 0)
        s[i] = dataclasses.replace(s[i], magnitude=s[i].magnitude + step)
        return dataclasses.replace(pattern, s=tuple(s))

    # (weight step, row rewrite (ctx, n, num, c, e) -> (num, c, e))
    rescalings = (
        (0, lambda ctx, n, num, c, e: (num * ctx.q.denominator, c, e + 1)),
        (0, lambda ctx, n, num, c, e: (num, c * ctx.q.denominator, e - 1)),
        (1, lambda ctx, n, num, c, e: (num * ctx.p_lcm(n), c, e)),
        (-1, lambda ctx, n, num, c, e: (num, c * ctx.p_lcm(n), e)),
        (0, lambda ctx, n, num, c, e: (num, c, e + 1)),
        (0, lambda ctx, n, num, c, e: (num, c, e - 1)),
        (1, lambda ctx, n, num, c, e: (num, c, e)),
        (-1, lambda ctx, n, num, c, e: (num, c, e)),
        (0, lambda ctx, n, num, c, e: (num, c * ctx.q.denominator, e + 1)),
        (0, lambda ctx, n, num, c, e: (num * ctx.q.denominator, c, e - 1)),
        (1, lambda ctx, n, num, c, e: (num, c * ctx.p_lcm(n), e)),
        (-1, lambda ctx, n, num, c, e: (num * ctx.p_lcm(n), c, e)),
    )
    built = [0]

    def counted(*args, real=evaluators._row_value):
        built[0] += 1
        return real(*args)

    def tripled(*args, real=v._mhs_rows, **kwargs):
        return [(num * 3, c * 3, e) for num, c, e in real(*args, **kwargs)]

    q_values = (Fraction(2, 7), Fraction(9, 10))
    n_max = 7
    for comp in ((2, 1, 1, 3, 1), (3, 2), (1,)):
        d, pattern = compose(comp)
        for scale in (1, -1):
            for i, (step, rescale) in enumerate(rescalings):
                fixed = Compiled(scale * d, reweighted(pattern, step))
                claimed = {
                    q: [
                        rescale(QContext(q), n, *row)
                        for n, row in enumerate(_pattern_rows(QContext(q), pattern, n_max))
                    ]
                    for q in q_values
                }
                residuals = []
                for q in q_values:
                    ctx = QContext(q)
                    lhs = mhs_many(ctx, comp, n_max, star=True)
                    for n, (num, c, e) in enumerate(claimed[q]):
                        den = ctx.p_lcm(n) ** fixed.pattern.weight * c
                        rhs = Fraction(num, den) / Fraction(q.denominator) ** e
                        residuals.append((q, n, lhs[n] - fixed.delta * rhs))
                lines, discrepancy = _full_fraction_report(residuals)
                assert (i < 4 and scale == 1) == (not lines), (comp, scale, i)
                for left in (None, tripled):
                    monkeypatch.setattr(v, "compose", lambda c, fixed=fixed: fixed)
                    monkeypatch.setattr(
                        v, "_pattern_rows", lambda ctx, *_, claimed=claimed: claimed[ctx.q]
                    )
                    monkeypatch.setattr(evaluators, "_row_value", counted)
                    if left:
                        monkeypatch.setattr(v, "_mhs_rows", left)
                    built[0] = 0
                    rep = v.verify_mhs(comp, n_max=n_max, q_values=q_values)
                    monkeypatch.undo()
                    where = (comp, scale, i, left)
                    assert built[0] == 2 * len(lines), where
                    assert rep.status == ("fail" if lines else "exact-pass"), where
                    assert rep.residuals == lines[: v._RESIDUAL_CAP], where
                    assert rep.discrepancy == discrepancy, where


def test_verify_qmzsv_small():
    rep = verify_qmzsv((2, 3, 2, 1), q=Fraction(1, 2), eps=Fraction(1, 10**20))
    assert rep.passed
    assert rep.status == "numeric-pass"
    assert Fraction(rep.tail_bound) <= Fraction(1, 10**20)
    with pytest.raises(ValueError):
        verify_qmzsv((1, 2))


def test_verify_qmzsv_detects_perturbed_delta(monkeypatch):
    import qzeta.verify as v
    from qzeta import Compiled

    real = v.compose

    def nudged(comp):
        d, pat = real(comp)
        return Compiled(d * (1 + Fraction(1, 10**20)), pat)

    clean = v.verify_qmzsv((2, 1, 1, 3, 1))
    monkeypatch.setattr(v, "compose", nudged)
    rep = v.verify_qmzsv((2, 1, 1, 3, 1))
    assert clean.status == "numeric-pass" and rep.status == "fail"
    assert Fraction(rep.discrepancy) > Fraction(rep.params["eps"])
    assert rep.params == {**clean.params, "delta": rep.params["delta"]}


def test_verify_qmzsv_reaches_toward_q_to_one(monkeypatch):
    from qzeta import compose

    comp, eps = (2, 1, 1, 3, 1), Fraction(1, 10**25)
    # at q = 2/3 the report is the one the oracles' exact partial sums of
    # both sides give, at the truncations of the searches
    q = Fraction(2, 3)
    d, pattern = compose(comp)
    K, left_tail = evaluators._harmonic_truncation(q, len(comp), eps / 4)
    lhs = oracles.harmonic_series_nested(q, [(x, 1) for x in comp], K, star=True)
    K, right_tail = evaluators._frakz_truncation(q, pattern, eps / 4, True)
    slots = [
        ((e.magnitude, e.sign), t, None if r is THETA else r)
        for e, t, r in zip(pattern.s, pattern.t, pattern.r)
    ]
    rhs = oracles.mollified_series_merged(q, slots, K)
    disc = abs(lhs - d * rhs)
    expect = {
        "case": "weak-zeta 2,1,1,3,1",
        "family": "composition",
        "params": {"composition": list(comp), "delta": d, "series": 9, "eps": str(eps)},
        "q": "2/3",
        "n_range": None,
        "status": "numeric-pass" if disc <= eps else "fail",
        "residuals": [],
        "discrepancy": rational_repr(disc),
        "tail_bound": rational_repr(left_tail + right_tail),
        "seed": None,
    }
    got = verify_qmzsv(comp, q=q).to_dict()
    del got["elapsed_ms"]
    assert got == expect and expect["status"] == "numeric-pass"

    # at 4/5 and 9/10 (K = 296 and 664) the balls decide: an exact left side
    # would take seconds and minutes
    def never(*args, **kwargs):
        raise AssertionError("the left side was summed exactly")

    monkeypatch.setattr(evaluators, "_mhs_rows", never)
    for q in (Fraction(4, 5), Fraction(9, 10)):
        assert verify_qmzsv(comp, q=q).status == "numeric-pass"


def _ball_precs_without_exact_sum(monkeypatch, comp):
    """verify_qmzsv(comp) at q = 1/2 with the exact left side patched to
    raise, and the binary points of the balls it summed."""
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("the exact left side was summed")

    precs = []
    enclosure = v.q_zeta_enclosure

    def recorded(*args, **kwargs):
        ball = enclosure(*args, **kwargs)
        precs.append(ball.value.prec)
        return ball

    monkeypatch.setattr(evaluators, "_mhs_rows", never)
    monkeypatch.setattr(v, "q_zeta_enclosure", recorded)
    return v.verify_qmzsv(comp, Fraction(1, 2)), precs


def test_deep_weak_zeta_is_decided_by_the_ball_at_twice_the_binary_point(monkeypatch):
    # the discrepancy of (2,)*200 is about 1e-121: the ball at P = 300 bits
    # cannot print it, the one at 600 can, and the exact sum never runs
    rep, precs = _ball_precs_without_exact_sum(monkeypatch, (2,) * 200)
    assert rep.status == "numeric-pass"
    assert precs == [300, 600]
    assert 0 < float(rep.discrepancy) < 1e-100


def test_deeper_weak_zeta_is_decided_by_the_ball_at_four_times_the_binary_point(monkeypatch):
    # the discrepancy of (2,)*300 is about 2e-181: neither the ball at 300
    # bits nor the one at 600 can print it, the one at 1,200 can, and the
    # exact sum, which runs for minutes here, never starts
    rep, precs = _ball_precs_without_exact_sum(monkeypatch, (2,) * 300)
    assert rep.status == "numeric-pass"
    assert precs == [300, 600, 1200]
    assert 0 < float(rep.discrepancy) < 1e-170


def test_verify_classical_small_then_better():
    lo = verify_classical((2, 2), K=10_000, tol=1e-6)
    hi = verify_classical((2, 2), K=100_000, tol=1e-6)
    assert lo.passed and hi.passed
    assert float(hi.discrepancy) < float(lo.discrepancy)


def test_lemma_suite_small():
    reps = lemma_suite(n_max=10, samples=4)
    assert [r.case for r in reps] == list(LEMMA_PARTS)
    assert all_passed(reps)


def _perturbed_rows(monkeypatch):
    # every Gaussian-binomial integer past the first of a row gains 1: the
    # kernel parts read br(n, k) from these rows, so br(n, k) gains
    # c_n * b**(k*k) for k < n.  The finite sums carry their prefactor from
    # row to row by the factors b**i - a**i instead, and every one of those
    # past the first gains 1 too
    real_row = QContext.gauss_row
    real_factors = evaluators._q_factors

    def row(self, n, stop):
        return [g + (1 if j else 0) for j, g in enumerate(real_row(self, n, stop))]

    def factors(ctx, top):
        return [h + (1 if i > 1 else 0) for i, h in enumerate(real_factors(ctx, top))]

    monkeypatch.setattr(QContext, "gauss_row", row)
    monkeypatch.setattr(evaluators, "_q_factors", factors)


def _perturbed_ratio(q, n, k):
    # br(n, k) under _perturbed_rows, from the oracle: G(2n, 0) = 1, so
    # c_n = br(n, n) / b**(n*n)
    b = q.denominator
    scale = oracles.binom_ratio(q, n, n) / b ** (n * n)
    return oracles.binom_ratio(q, n, k) + (scale * b ** (k * k) if 1 <= n - k else 0)


def test_lemma_reports_fail_under_perturbed_kernels(monkeypatch):
    config = dict(n_max=8, samples=3)
    clean = lemma_suite(**config)
    _perturbed_rows(monkeypatch)
    labels = {
        "alternating-kernel-sum": r"q=\S+ n=\d+ l=\d+",
        "weighted-kernel-sum": r"q=\S+ n=\d+ l=\d+",
        "inverse-power-expansion": r"c=\d+ n=\d+",
        "head-reduction": r"a=-?\d+ b=\d+ c=\d+ r=\S+ tail=\[[^\]]+\] n=\d+",
        "kernel-step": r"q=\S+ n=\d+ k=\d+ a=\d+",
    }
    for part, before, rep in zip(LEMMA_PARTS, clean, lemma_suite(**config)):
        assert rep.case == part
        assert rep.status == "fail" and not rep.passed
        assert rep.discrepancy is None
        assert 1 <= len(rep.residuals) <= 16
        for line in rep.residuals:
            assert re.fullmatch(labels[part] + r": \S+", line), line
        assert rep.params["checks"] == before.params["checks"]
        # each kernel part fails at more checks than the cap: the cap is
        # reached, not just respected
        if "kernel" in part:
            assert len(rep.residuals) == 16, part


_q_int = oracles.q_integer


def _kernel(q, n, k):
    # A(n, k) = (-1)^k (1 + q^k) q^{k(k-1)/2} br(n, k) on the perturbed rows
    if k > n:
        return Fraction(0)
    return (-1) ** k * (1 + q**k) * q ** (k * (k - 1) // 2) * _perturbed_ratio(q, n, k)


def test_failing_kernel_sum_residuals_match_the_oracle(monkeypatch):
    # a residual is reported at full scale: dropping the factor c_n that the
    # check leaves out of the rows would change every line
    _perturbed_rows(monkeypatch)
    qs = (Fraction(1, 2), Fraction(7, 8))
    parts = {
        "alternating-kernel-sum": (
            _kernel,
            lambda q, n, l: (_q_int(q, l) - _q_int(q, n)) / _q_int(q, n)
            * _perturbed_ratio(q, n, l) * (-1) ** l * q ** (l * (l - 1) // 2),
        ),
        "weighted-kernel-sum": (
            lambda q, n, k: (1 + q**k) * _q_int(q, k) * _perturbed_ratio(q, n, k)
            * q ** (k * (k - 1)),
            lambda q, n, l: (_q_int(q, n) - _q_int(q, l)) * _perturbed_ratio(q, n, l) * q ** (l * l),
        ),
    }
    reports = _lemma_parts(n_max=5, q_values=qs)
    for part, (term, closed) in parts.items():
        rep = reports[part]
        lines = []
        for q in qs:
            for n in range(2, 6):
                for l in range(1, n):
                    res = sum(term(q, n, k) for k in range(l + 1, n + 1)) - closed(q, n, l)
                    if res:
                        lines.append(f"q={q} n={n} l={l}: {rational_repr(res)}")
        assert rep.status == "fail" and rep.params["checks"] == 2 * 10
        assert len(lines) > 16 and rep.residuals == lines[:16], part


def test_failing_kernel_step_residuals_match_the_oracle(monkeypatch):
    _perturbed_rows(monkeypatch)
    qs = (Fraction(1, 2), Fraction(2, 9))
    rep = _lemma_parts(n_max=4, q_values=qs)["kernel-step"]
    lines = []
    for q in qs:
        for n in range(1, 5):
            for k in range(1, n + 1):
                ratio = (_q_int(q, n) / _q_int(q, k)) ** 2 * q ** (k - n)
                for a in range(4):
                    geom = sum(ratio**i for i in range(a + 1))
                    res = _kernel(q, n - 1, k) * geom - _kernel(q, n, k) * (ratio**a - 1 / ratio)
                    if res:
                        lines.append(f"q={q} n={n} k={k} a={a}: {rational_repr(res)}")
    assert rep.status == "fail" and rep.params == {"a_max": 3, "checks": 2 * 10 * 4}
    # the cap takes lines from both q
    assert len(lines) > 16 and rep.residuals == lines[:16]


def test_lemma_suite_kernel_limit_cap(monkeypatch):
    # an n_max over the cap is refused before any part builds a kernel row
    def never(*args):
        raise AssertionError("a kernel row was built")

    import qzeta.verify as v

    monkeypatch.setattr(QContext, "gauss_row", never)
    cap = v._MAX_KERNEL_LIMIT
    with pytest.raises(ValueError, match=f"{cap + 1} exceeds {cap}"):
        lemma_suite(n_max=cap + 1)
    # the cap itself is admitted: its first row is built
    with pytest.raises(AssertionError, match="a kernel row was built"):
        lemma_suite(n_max=cap)


def test_lemma_suite_refuses_sizes_without_checks(monkeypatch):
    # a size that would leave a part with no check raises before any part
    # runs
    def never(*args):
        raise AssertionError("a lemma part was started")

    monkeypatch.setattr(QContext, "gauss_row", never)
    monkeypatch.setattr(QContext, "p_lcm", never)
    for kwargs, message in (
        (dict(n_max=1), "n_max = 1 leaves alternating-kernel-sum"),
        (dict(n_max=0), "n_max = 0 leaves alternating-kernel-sum"),
        (dict(samples=-3), "samples = -3 leaves head-reduction"),
        (dict(samples=0), "samples = 0 leaves head-reduction"),
        (dict(q_values=()), "at least one q"),
    ):
        with pytest.raises(ValueError, match=message):
            lemma_suite(**kwargs)
    monkeypatch.undo()
    # the least sizes are admitted, and every part checks something
    reports = _lemma_parts(n_max=2, samples=1, q_values=("1/2",))
    assert all_passed(reports.values())
    assert reports["alternating-kernel-sum"].params["checks"] == 1
    assert reports["head-reduction"].params["checks"] == 15


def test_lemma_suite_samples_cap(monkeypatch):
    # samples over the cap are refused before any part runs
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a part was started")

    for part in ("_kernel_sum", "_inverse_power", "_head_reduction"):
        monkeypatch.setattr(v, part, never)
    cap = v._MAX_HEAD_SAMPLES
    assert cap == 10_000  # the cap the README gives
    with pytest.raises(ValueError, match=f"^samples {cap + 1} exceeds {cap} for head-reduction$"):
        v.lemma_suite(samples=cap + 1)
    # the cap itself is admitted: the first part starts
    with pytest.raises(AssertionError, match="a part was started"):
        v.lemma_suite(samples=cap)


def test_special_patterns_shape():
    tri = inverse_power_pattern(3)
    assert tri.depth == 4
    assert tri.s[0].magnitude == 0 and tri.s[0].sign == -1
    tri = head_reduction_pattern(tri.s[1], 2, 2, 3)
    assert tri.depth == 3


def test_symmetric_pair_check():
    rep = symmetric_pair_check(1, 2, eps=Fraction(1, 10**18))
    assert rep.passed
    assert rep.params["a"] == 1 and rep.params["b"] == 2


def test_symmetric_pair_check_refuses_bad_sizes_before_any_sum(monkeypatch):
    import qzeta.evaluators

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_ball_sweep", "_run_column", "_inner_terms"):
        monkeypatch.setattr(qzeta.evaluators, name, never)
    for a, b in ((-1, 0), (0, -2), (-3, -3), (1.0, 0), (0, "2"), (Fraction(1), 1)):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            symmetric_pair_check(a, b)
    # the patches are live: a valid pair reaches a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        symmetric_pair_check(0, 0)


def test_symmetric_pair_check_refuses_bools(monkeypatch):
    # bool is an int subclass: True would run as 1 and be reported as "a": true
    import qzeta.evaluators as ev
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column", "_classical_sum"):
        monkeypatch.setattr(ev, name, never)
    for name in ("_mhs_rows", "_kernel_sum", "_inverse_power", "_head_reduction"):
        monkeypatch.setattr(v, name, never)
    for a, b in ((True, False), (0, True), (False, 1)):
        with pytest.raises(ValueError, match="must be an int >= 0"):
            symmetric_pair_check(a, b)
    # so every other size, upper limit and composition entry is refused
    # before any sum, with a message that names it
    for call, error, message in (
        (lambda: v.verify_mhs((2, 1), n_max=True), ValueError, "^n_max must be an int, got True$"),
        (lambda: v.verify_mhs((2, True)), ValueError, "positive integers, got True$"),
        (lambda: v.verify_qmzsv((2, True)), ValueError, "positive integers, got True$"),
        (lambda: v.verify_classical((2, 1), K=True), ValueError, "^K must be an int, got True$"),
        (lambda: v.lemma_suite(samples=True), ValueError, "^samples must be an int, got True$"),
    ):
        with pytest.raises(error, match=message):
            call()
    # the patches are live: an int reaches a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        v.verify_mhs((2, 1), n_max=1)
    with pytest.raises(AssertionError, match="a sum was started"):
        v.lemma_suite(samples=1)


def test_composition_entries_have_one_reader_before_any_sum(monkeypatch):
    # the finite, q-series and classical checks read a composition the same
    # way, first: a bool, a non-int or an entry below 1 is a ValueError that
    # names it, whichever check it reaches
    import qzeta.evaluators as ev
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column", "_classical_sum"):
        monkeypatch.setattr(ev, name, never)
    monkeypatch.setattr(v, "_mhs_rows", never)
    checks = (v.verify_mhs, v.verify_qmzsv, v.verify_classical)
    for comp, bad in (
        ((2, 2.0), "2.0"),
        (("2", 1), "'2'"),
        ((2, True), "True"),
        ((3, Fraction(1)), "Fraction(1, 1)"),
        ((2, 0), "0"),
        ((2, -1), "-1"),
        ((2, None), "None"),
    ):
        for check in checks:
            message = f"^composition entries must be positive integers, got {re.escape(bad)}$"
            with pytest.raises(ValueError, match=message):
                check(comp)
    for check in checks:
        with pytest.raises(ValueError, match="^composition must be nonempty$"):
            check(())
    # the patches are live: a composition of ints reaches a sum in each check
    for check in checks:
        with pytest.raises(AssertionError, match="a sum was started"):
            check((2, 1))


def test_lemma_suite_reads_its_seed_before_any_part(monkeypatch):
    # a seed is reported as given, so True would print as "seed": true
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a part was started")

    for part in ("_kernel_sum", "_inverse_power", "_head_reduction"):
        monkeypatch.setattr(v, part, never)
    with pytest.raises(ValueError, match="^seed must be an int, got True$"):
        v.lemma_suite(seed=True)
    for seed in ("101", 1.5, None):
        with pytest.raises(TypeError, match=f"^seed must be an int, got {re.escape(repr(seed))}: "):
            v.lemma_suite(seed=seed)
    # the patches are live: an int seed reaches the first part
    with pytest.raises(AssertionError, match="a part was started"):
        v.lemma_suite(seed=7)


def _body(report) -> dict:
    body = report.to_dict()
    del body["elapsed_ms"]
    return body


def _depth_three_weight_twelve() -> list:
    from qzeta import compose

    comps = []
    for cuts in range(2**11):
        comp, run = [], 1
        for p in range(11):
            if cuts >> p & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        if comp[0] >= 2 and compose(comp)[1].depth == 3:
            comps.append(tuple(comp))
    assert len(comps) == 45
    return comps


def test_qseries_reports_do_not_depend_on_warm_memos(qzeta_memos):
    # the q-level memos are shared by every check at one q and eps: reports
    # run in either order, or each from cold memos, are the same
    comps = _depth_three_weight_twelve()

    def cold():
        for memo in qzeta_memos:
            memo.cache_clear()

    cold()
    forward = [_body(verify_qmzsv(c)) for c in comps]
    cold()
    backward = [_body(verify_qmzsv(c)) for c in reversed(comps)][::-1]
    each_cold = []
    for c in comps:
        cold()
        each_cold.append(_body(verify_qmzsv(c)))
    assert forward == backward == each_cold
    assert all(r["status"] == "numeric-pass" for r in forward)


def test_qseries_reports_from_two_threads_equal_the_serial_ones(qzeta_memos):
    # both threads fill the same cold memos, switching as often as the
    # interpreter allows
    import sys
    from concurrent.futures import ThreadPoolExecutor

    comps = _depth_three_weight_twelve()
    serial = [_body(verify_qmzsv(c)) for c in comps]
    for memo in qzeta_memos:
        memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = [_body(r) for r in pool.map(verify_qmzsv, comps, timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_qseries_reports_from_four_threads_equal_the_serial_ones(qzeta_memos):
    # four threads read and fill the level memo's left levels and right
    # columns, a right ball reading its dict of columns without the lock,
    # switching as often as the interpreter allows; every level and column
    # looked up is counted once, as read or as summed
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from qzeta import compose
    from qzeta.levels import Levels

    comps = _depth_three_weight_twelve()
    serial = [_body(verify_qmzsv(c)) for c in comps]
    for memo in qzeta_memos:
        memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = [_body(r) for r in pool.map(verify_qmzsv, comps * 3, timeout=120)]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 3
    info = Levels.cache_info()
    depths = [compose(c)[1].depth for c in comps]
    lookups = sum(len(c) - 1 + d * (d + 1) // 2 for c, d in zip(comps, depths))
    assert info.hits > 0 and info.hits + info.misses == 3 * lookups, info


def test_memos_are_bounded_and_stay_small_over_the_qseries_batch(qzeta_memos):
    # every memo has a finite maxsize; keyed by q-level data only, no
    # lru_cache grows with the compositions: the 175 weight-12 compositions
    # of depth 2-4, which include all 80 distinct ones of the benchmark's
    # seed-1 q-series batch, at its q = 1/2 and eps = 1e-25 fill the largest
    # to 4 entries (_harmonic_search 4, _magnitude_table 3, _frakz_search 3,
    # _power_table 2).  The left and right magnitude tables are read off one
    # fixed-point sequence per q, binary point and magnitude group that keeps
    # no memo of its own, so these counts and the tables' lengths depend only
    # on the keys, not on how an entry is computed.  The level
    # memo holds the left balls' levels by suffix and the right balls' run
    # columns, and counts bits, not entries: it holds some after the batch,
    # within its own bound
    from qzeta.levels import LEVEL_MEMO_BITS, Levels

    assert qzeta_memos
    assert all(memo.cache_info().maxsize is not None for memo in qzeta_memos)
    for comp in _weight_twelve_depth_two_to_four():
        assert verify_qmzsv(comp, q=Fraction(1, 2), eps=Fraction(1, 10**25)).passed
    caches = [memo for memo in qzeta_memos if memo is not Levels]
    assert len(caches) == len(qzeta_memos) - 1
    assert all(memo.cache_info().currsize <= 10 for memo in caches), [
        memo.cache_info() for memo in caches
    ]
    info = Levels.cache_info()
    assert 0 < info.currsize <= info.maxsize == LEVEL_MEMO_BITS, info


def test_qseries_batch_builds_each_table_once_per_power_of_two_binary_point(monkeypatch):
    # the 175 weight-12 compositions of depth 2-4 at q = 1/2 and
    # eps = 1e-25, which hold every composition of the benchmark's seed-1
    # q-series batch, read every right-ball run and damping, at binary
    # points 300 to 512, from the tables at 2**-512: 2 magnitude tables
    # (groups 0 and 1) and the power table of q, the only power table there
    # is; and every left column, magnitudes 1 to 4 at 2**-320, from 1 table
    # of the first magnitude group.  Each is built once.  With a table per
    # binary point and a left pass per magnitude they built 7, 4 and 4
    from qzeta import evaluators as ev

    real = ev._magnitude_table
    keys = []
    monkeypatch.setattr(ev, "_magnitude_table", lambda *key: keys.append(key) or real(*key))
    for comp in _weight_twelve_depth_two_to_four():
        assert verify_qmzsv(comp, q=Fraction(1, 2), eps=Fraction(1, 10**25)).passed
    left = {key for key in keys if key[5:] == (0,)}
    assert sorted(set(keys) - left) == [(1, 2, 512, 32, 0), (1, 2, 512, 32, 1)]
    assert left == {(1, 2, 320, 128, 0, 0)}
    assert real.cache_info().misses == 3
    assert ev._power_table.cache_info().misses == 1


def test_qseries_checks_build_no_qcontext(monkeypatch, qzeta_memos):
    # the certified q-series path reads q, eps and a binary point only: with
    # QContext unable to start and every memo cold, the checks give the
    # reports they give with it
    def checks():
        return [
            _body(verify_qmzsv((2, 1, 1, 3, 1), q=Fraction(1, 2))),
            _body(verify_qmzsv((2, 1, 1, 3, 1), q=Fraction(4, 5))),
            _body(symmetric_pair_check(1, 2)),
        ]

    def refused(self, q):
        raise AssertionError("a QContext was built")

    expected = checks()
    assert all(rep["status"] == "numeric-pass" for rep in expected)
    monkeypatch.setattr(QContext, "__init__", refused)
    for memo in qzeta_memos:
        memo.cache_clear()
    assert checks() == expected
    # the patch is live: the exact engines' context cannot be built
    with pytest.raises(AssertionError, match="a QContext was built"):
        QContext(Fraction(1, 2))



def _weight_twelve_depth_two_to_four() -> list:
    from qzeta import compose

    comps = []
    for cuts in range(2**11):
        comp, run = [], 1
        for p in range(11):
            if cuts >> p & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        if comp[0] >= 2 and 2 <= compose(comp)[1].depth <= 4:
            comps.append(tuple(comp))
    assert len(comps) == 175
    return comps


def test_qseries_right_side_is_decided_by_the_ball(monkeypatch):
    # with the exact right side patched to raise, every weight-12
    # composition with a first entry >= 2 and pattern depth 2-4 passes at
    # q = 1/2, and so does 9,9,9 (pattern depth 22) at q = 4/5, whose exact
    # right side takes seconds
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("the right side was summed exactly")

    comps = _weight_twelve_depth_two_to_four()
    exact = {comp: _body(v.verify_qmzsv(comp)) for comp in comps[::25]}
    # the symmetric pair's right side, and the whole battery, too
    pairs = [(0, 0, Fraction(1, 2)), (1, 2, Fraction(1, 2)), (2, 1, Fraction(1, 2)),
             (1, 1, Fraction(5, 8))]
    symmetric = [_body(v.symmetric_pair_check(a, b, q=q)) for a, b, q in pairs]
    battery = [_body(rep) for rep in v.qmzsv_battery()]
    monkeypatch.setattr(evaluators, "_inner_terms", never)
    for comp in comps:
        rep = v.verify_qmzsv(comp)
        assert rep.status == "numeric-pass", comp
        if comp in exact:
            assert _body(rep) == exact[comp]
    rep = v.verify_qmzsv((9, 9, 9), q=Fraction(4, 5))
    assert rep.status == "numeric-pass"
    assert rep.discrepancy == "4.94129238005E-34"
    assert [_body(v.symmetric_pair_check(a, b, q=q)) for a, b, q in pairs] == symmetric
    assert [_body(rep) for rep in v.qmzsv_battery()] == battery
    # a right ball that cannot decide falls back to nothing: the check is
    # refused after the ball at 2,400 bits
    monkeypatch.setattr(
        v, "frakz_enclosure",
        lambda *args, prec, **kwargs: v.SeriesValue(evaluators.Ball(0, 1 << prec, prec), 0, 0),
    )
    with pytest.raises(ValueError, match=r"binary point 2\*\*-2400 decides"):
        v.verify_qmzsv((2, 1, 2))


def test_family_compositions_are_decided_at_the_first_binary_point(monkeypatch):
    # the 519 distinct zeta-admissible compositions of the closed families
    # of weight <= 12 at q = 1/2 and eps = 1e-25 all pass on the first
    # rung, P = 300: each check sweeps one left and one right ball, both at
    # 2**-300.  This pins the guard bits of P: with _GUARD_BITS = 32 instead
    # of 100 (a first binary point of 2**-232), (7,) .. (12,) need a second
    # rung, and with 72 (11,) and (12,) still do
    from qzeta import CLOSED_FAMILIES, closed_pattern
    from qzeta.rules import zeta_admissible

    comps = {
        closed_pattern(family, *args)[0]
        for family in CLOSED_FAMILIES
        for args in family_instances(family, 12)
    }
    comps = sorted(c for c in comps if zeta_admissible(c))
    assert len(comps) == 519
    sweep, points = evaluators._ball_sweep, []

    def recorded(runs, n, prec, *args):
        points.append(prec)
        return sweep(runs, n, prec, *args)

    monkeypatch.setattr(evaluators, "_ball_sweep", recorded)
    for comp in comps:
        rep = verify_qmzsv(comp, q=Fraction(1, 2), eps=Fraction(1, 10**25))
        assert rep.status == "numeric-pass", comp
    assert points == [300] * (2 * len(comps))


def test_qseries_check_that_no_ball_decides_is_refused(monkeypatch, capsys):
    # with every ball widened to +-1 around its centre, no rung decides:
    # both sides' balls run once at each of 300, 600, 1,200 and 2,400 bits,
    # no series is summed exactly, and the check is refused, at the command
    # line with exit 2 and a message
    import qzeta.verify as v
    from qzeta.cli import main

    def never(*args, **kwargs):
        raise AssertionError("a series was summed exactly")

    precs = collections.defaultdict(list)

    def widened(name):
        real = getattr(v, name)

        def call(*args, **kwargs):
            value = real(*args, **kwargs)
            ball = value.value
            precs[name].append(ball.prec)
            return value._replace(value=evaluators.Ball(ball.mid, 1 << ball.prec, ball.prec))
        monkeypatch.setattr(v, name, call)

    for name in ("_mhs_rows", "_inner_terms"):
        monkeypatch.setattr(evaluators, name, never)
    widened("q_zeta_enclosure")
    widened("frakz_enclosure")
    ladder = [300, 600, 1200, 2400]
    with pytest.raises(ValueError, match=r"no ball down to the binary point 2\*\*-2400"):
        v.verify_qmzsv((2, 1, 2))
    assert precs == {"q_zeta_enclosure": ladder, "frakz_enclosure": ladder}
    precs.clear()
    assert main(["verify", "2,1,2", "--qmzsv"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: no ball down to the binary point 2**-2400 decides the report\n"
    assert precs == {"q_zeta_enclosure": ladder, "frakz_enclosure": ladder}


def test_qseries_reports_are_the_same_from_cold_and_warm_tables(qzeta_memos):
    # a check that builds the right ball's tables and one that reads them
    # from the memos give the same report, at several q; the second check
    # builds no table
    from qzeta import evaluators as ev

    comps = [(2, 1, 1, 3, 1), (5, 5, 1), (2, 3, 2, 1, 2, 2), (4, 1, 1)]
    for q in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 8), Fraction(4, 5)):
        for comp in comps:
            for memo in qzeta_memos:
                memo.cache_clear()
            cold = _body(verify_qmzsv(comp, q=q))
            built = ev._magnitude_table.cache_info().misses, ev._power_table.cache_info().misses
            assert built[0] and built[1]
            warm = _body(verify_qmzsv(comp, q=q))
            assert cold == warm, (q, comp)
            again = ev._magnitude_table.cache_info().misses, ev._power_table.cache_info().misses
            assert again == built, (q, comp)


def _leading_two_weight_seven() -> list:
    # every composition of 7 that opens with an entry >= 2: their patterns
    # share most of their series, so most classical sums repeat
    comps = [(7,)]
    for cuts in range(1, 2**6):
        comp, run = [], 1
        for p in range(6):
            if cuts >> p & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        if comp[0] >= 2:
            comps.append(tuple(comp))
    assert len(comps) == 32
    return comps


def test_classical_reports_do_not_depend_on_a_warm_memo(qzeta_memos):
    # the classical value memo is shared by every check at one K: reports
    # run in either order, or each from a cold memo, are the same
    from qzeta.evaluators import _classical_sum

    comps = _leading_two_weight_seven()

    def run(comp):
        return _body(verify_classical(comp, K=10**4, tol=1e-2))

    def cold():
        for memo in qzeta_memos:
            memo.cache_clear()

    cold()
    forward = [run(c) for c in comps]
    info = _classical_sum.cache_info()
    # two lookups a check, one weak and one resolved series
    assert info.hits + info.misses == 2 * len(comps) == 64, info
    assert [run(c) for c in comps] == forward
    again = _classical_sum.cache_info()
    assert (again.hits - info.hits, again.misses - info.misses) == (64, 0), again
    cold()
    backward = [run(c) for c in reversed(comps)][::-1]
    each_cold = []
    for c in comps:
        cold()
        each_cold.append(run(c))
    assert forward == backward == each_cold
    assert sum(r["status"] == "numeric-pass" for r in forward) >= 24


def test_classical_reports_equal_the_ones_built_from_the_oracle(qzeta_memos):
    # every float of a report, rebuilt from the per-string oracle, the
    # right side as the pattern's resolved series, from a cold memo and a
    # warm one
    from qzeta.rules import compose

    K, tol = 10**4, 1e-4
    expected = []
    for comp in _leading_two_weight_seven():
        lhs, lhs_tail = oracles.classical_partial_sum(
            [(p, 1) for p in comp], K, star=True, chunk=evaluators._CHUNK
        )
        d, pattern = compose(comp)
        value, rhs_tail = oracles.classical_partial_sum(
            [(e.magnitude, e.sign) for e in pattern.s], K, star="resolved", chunk=evaluators._CHUNK
        )
        rhs = d * value
        expected.append((comp, lhs, rhs, tol + lhs_tail + rhs_tail, abs(lhs - rhs), lhs_tail + rhs_tail))
    for memo in qzeta_memos:
        memo.cache_clear()
    for _ in ("cold", "warm"):
        for comp, *floats in expected:
            report = verify_classical(comp, K=K, tol=tol)
            p = report.params
            assert [p["lhs"], p["rhs"], p["allowance"], report.discrepancy, report.tail_bound] == floats, comp


def test_verify_classical_sums_one_series_per_call(monkeypatch):
    # a check makes two calls of classical_zeta, the name the benchmark
    # traces: the composition's weak series, then the pattern's resolved one
    import qzeta.verify
    from qzeta.rules import compose

    real = qzeta.verify.classical_zeta
    calls = []

    def spy(s, K, star):
        calls.append((tuple(s), K, star))
        return real(s, K=K, star=star)

    monkeypatch.setattr(qzeta.verify, "classical_zeta", spy)
    for comp in ((2, 1), (3, 1, 2), (2, 2, 2, 1)):
        calls.clear()
        report = verify_classical(comp, K=500, tol=1e-2)
        pattern = compose(comp)[1]
        assert calls == [(comp, 500, True), (pattern.s, 500, "resolved")], comp
        assert report.params["lhs"] == real(comp, K=500, star=True).value


def test_classical_reports_from_two_threads_equal_the_serial_ones(qzeta_memos):
    # both threads fill the same cold memo with overlapping series,
    # switching as often as the interpreter allows
    import sys
    import threading
    from concurrent.futures import ThreadPoolExecutor

    comps = _leading_two_weight_seven()

    def run(comp):
        return _body(verify_classical(comp, K=10**4, tol=1e-2))

    serial = [run(c) for c in comps]
    for memo in qzeta_memos:
        memo.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            threaded = list(pool.map(run, comps + comps[::-1], timeout=120))
        # both threads run every check in the same order from a cold memo,
        # so each misses the strings the other is about to sum
        for memo in qzeta_memos:
            memo.cache_clear()
        start = threading.Barrier(2)

        def run_all():
            start.wait(timeout=60)
            return [run(c) for c in comps]

        with ThreadPoolExecutor(max_workers=2) as pool:
            both = [future.result(timeout=120) for future in [pool.submit(run_all) for _ in range(2)]]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial + serial[::-1]
    assert both == [serial, serial]

def test_sample_compositions_deterministic():
    xs = sample_compositions(25, max_weight=9, seed=7)
    ys = sample_compositions(25, max_weight=9, seed=7)
    zs = sample_compositions(25, max_weight=9, seed=8)
    assert xs == ys
    assert xs != zs
    assert len(xs) == 25
    # the depth cap is reached, not just respected
    assert max(len(comp) for comp in xs) == 6
    for comp in xs:
        assert sum(comp) <= 9
        assert all(e >= 1 for e in comp)


def test_sample_compositions_are_nonempty_below_the_depth_cap():
    # a depth above max_weight would leave no room for its entries, so the
    # depth is drawn below both caps: the corpus is nonempty at every
    # weight from 1 up
    for max_weight in range(1, 6):
        comps = sample_compositions(200, max_weight=max_weight, seed=DEFAULT_SEED)
        assert len(comps) == 200
        for comp in comps:
            assert 1 <= len(comp) and sum(comp) <= max_weight and min(comp) >= 1, (max_weight, comp)
    assert set(sample_compositions(50, max_weight=1)) == {(1,)}
    for max_weight in (0, -1):
        with pytest.raises(ValueError, match=f"^max_weight must be >= 1, got {max_weight}$"):
            sample_compositions(5, max_weight=max_weight)


def test_sample_compositions_count_cap(monkeypatch):
    # a count over the cap is refused before the first draw
    import types

    import qzeta.verify as v

    def never(*args):
        raise AssertionError("a composition was drawn")

    monkeypatch.setattr(v, "random", types.SimpleNamespace(Random=never))
    cap = v._MAX_SAMPLE_COUNT
    assert cap == 10_000  # the cap the README gives
    with pytest.raises(ValueError, match=f"^count {cap + 1} exceeds {cap} for a random corpus$"):
        sample_compositions(cap + 1)
    # the cap itself is admitted: the draws start
    with pytest.raises(AssertionError, match="a composition was drawn"):
        sample_compositions(cap)


def test_sample_compositions_reads_its_sizes_as_ints():
    # a bool would draw as 0 or 1 and a negative count would return an empty
    # corpus; both are refused, and a float raises a TypeError that names it
    with pytest.raises(ValueError, match="^count must be an int, got True$"):
        sample_compositions(True)
    with pytest.raises(ValueError, match="^count must be >= 0, got -1$"):
        sample_compositions(-1)
    with pytest.raises(ValueError, match="^max_weight must be an int, got True$"):
        sample_compositions(3, max_weight=True)
    with pytest.raises(ValueError, match="^seed must be an int, got False$"):
        sample_compositions(3, seed=False)
    for name, kwargs in (("count", {"count": 3.0}), ("max_weight", {"max_weight": 5.0}),
                         ("seed", {"seed": 1.5})):
        with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
            sample_compositions(**{"count": 3, **kwargs})
    assert sample_compositions(0) == []


def test_family_sizes_are_read_as_ints():
    # a float max_weight used to raise a bare TypeError from range, and True
    # ran as weight 1; each entry point now names the parameter
    for call in (
        lambda w: next(family_instances("twos", w)),
        lambda w: family_equivalence("twos", w),
        lambda w: run_family("twos", w),
    ):
        with pytest.raises(TypeError, match="^max_weight must be an int, got 12.0: "):
            call(12.0)
        with pytest.raises(ValueError, match="^max_weight must be an int, got True$"):
            call(True)
    assert family_equivalence("twos", 12).params["max_weight"] == 12


def test_family_instances_and_equivalence():
    from qzeta import closed_pattern

    insts = list(family_instances("2c21", max_weight=9))
    assert insts
    for params in insts:
        comp, compiled = closed_pattern("2c21", *params)
        assert sum(comp) <= 9
    rep = family_equivalence("2c21", max_weight=9)
    assert rep.passed
    assert rep.params["checks"] == len(insts)
    with pytest.raises(ValueError):
        list(family_instances("nope"))


def test_family_instances_weight_cap(monkeypatch):
    # a weight over the cap is refused before the first instance of any
    # family is built
    import qzeta.rules
    import qzeta.verify as v
    from qzeta import CLOSED_FAMILIES

    def never(*args):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(qzeta.rules, "_group_seqs", never)
    monkeypatch.setattr(qzeta.rules, "_instances_2c2", never)
    monkeypatch.setattr(v, "compose", never)
    cap = qzeta.rules._MAX_FAMILY_WEIGHT
    assert cap == 24  # the cap the README gives
    message = f"^max_weight {cap + 1} exceeds {cap} for a closed family$"
    for family in sorted(CLOSED_FAMILIES):
        with pytest.raises(ValueError, match=message):
            next(family_instances(family, cap + 1))
        with pytest.raises(ValueError, match=message):
            family_equivalence(family, cap + 1)
    # the cap itself is admitted: the first instance is built
    for family in ("2c2", "2c21"):
        with pytest.raises(AssertionError, match="an instance was built"):
            family_equivalence(family, cap)


def test_family_equivalence_reports_mismatches(monkeypatch):
    # a composer that disagrees with every closed form fails the report at
    # every instance, which keeps the first 16 mismatches as text
    import qzeta.verify as v

    real = v.compose
    monkeypatch.setattr(v, "compose", lambda comp: real(tuple(comp) + (1,)))
    rep = family_equivalence("2c21", max_weight=9)
    assert rep.status == "fail" and not rep.passed
    assert rep.params["checks"] == len(list(family_instances("2c21", max_weight=9))) > 16
    assert len(rep.residuals) == 16
    for line in rep.residuals:
        assert re.fullmatch(r"2c21\(.+\): closed=\(.+\) direct=\(.+\)", line), line


def test_run_family():
    reps = run_family("twos-ones", max_weight=6, n_max=6)
    assert reps and all_passed(reps)


def test_classical_battery_shapes():
    # run the cheap member only; the full battery belongs to the acceptance suite
    rep = verify_classical((2, 1), K=10**6, tol=1e-5, case="depth-two limit")
    assert rep.passed
    assert rep.params["K"] == 10**6


def test_eps_is_read_as_a_positive_rational_before_any_sum(monkeypatch):
    # every entry point that takes eps refuses an unreadable or nonpositive
    # one with a ValueError that says so, never ZeroDivisionError
    import qzeta.evaluators as ev
    import qzeta.verify as v
    from qzeta import Triple, idx
    from qzeta.evaluators import frakz_enclosure, q_zeta_enclosure
    from qzeta.qarith import as_eps, as_q

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_mhs_rows", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(ev, name, never)
    ctx = QContext(Fraction(1, 2))
    pattern = Triple((idx(2),), (0,), (2,))
    calls = (
        lambda eps: v.verify_qmzsv((2, 1), eps=eps),
        lambda eps: v.symmetric_pair_check(0, 0, eps=eps),
        lambda eps: v.qmzsv_battery(eps=eps),
        lambda eps: q_zeta_enclosure(ctx.q, (2,), eps=eps),
        lambda eps: frakz_enclosure(ctx.q, pattern, eps=eps, merge=False),
        as_eps,
    )
    for call in calls:
        for text in ("1/0", "abc", "", float("inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^eps must be a rational number, got '{text}'$"):
                call(text)
        for bad in (0, "0", Fraction(-1, 10**25), "-1e-5"):
            with pytest.raises(ValueError, match="^eps must be positive$"):
                call(bad)
    assert as_eps("1e-25") == as_eps(Fraction(1, 10**25)) == Fraction(1, 10**25)
    assert as_eps(1) == 1
    # q is read by the same rule: an infinite float is not a rational either
    for call in (
        as_q,
        lambda q: v.verify_mhs((2, 1), q_values=[q]),
        lambda q: v.verify_qmzsv((2, 1), q=q),
    ):
        for text in ("1/0", "abc", float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match=f"^q must be a rational number, got '{text}'$"):
                call(text)
    # the patches are live: a readable eps reaches a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        v.verify_qmzsv((2, 1), eps="1e-20")


def test_finite_checks_refuse_a_str_of_q_and_a_fractional_n_max_before_any_sum(monkeypatch):
    # a str would be read one character at a time, as the q 1, / and 2
    import qzeta.evaluators as ev
    import qzeta.verify as v

    def never(*args, **kwargs):
        raise AssertionError("a sum was started")

    for name in ("_inner_terms", "_ball_sweep", "_run_column"):
        monkeypatch.setattr(ev, name, never)
    monkeypatch.setattr(v, "_mhs_rows", never)
    for part in ("_kernel_sum", "_inverse_power", "_head_reduction"):
        monkeypatch.setattr(v, part, never)
    with pytest.raises(ValueError, match="q_values must be a sequence of q, got the str '1/2'"):
        v.verify_mhs((2, 1), q_values="1/2")
    with pytest.raises(ValueError, match="q_values must be a sequence of q, got the str '1/2'"):
        v.lemma_suite(q_values="1/2")
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        v.verify_mhs((2, 1), n_max=2.5)
    with pytest.raises(TypeError, match="^n_max must be an int, got 2.5: .* cannot be interpreted"):
        v.lemma_suite(n_max=2.5)
    # the patches are live: a list of q and an int n_max reach a sum
    with pytest.raises(AssertionError, match="a sum was started"):
        v.verify_mhs((2, 1), n_max=2, q_values=["1/2"])
    with pytest.raises(AssertionError, match="a sum was started"):
        v.lemma_suite(q_values=["1/2"])


def _half_step_ball_repr(ball):
    # the rule _ball_repr followed before it read its text from
    # rational_repr: the ball holds no compact rational, and its ends lie
    # strictly inside one step of the grid of half the 12th digit of its
    # centre; the text is the centre's, by Decimal division
    one = 1 << ball.prec
    lo, hi = Fraction(ball.mid - ball.rad, one), Fraction(ball.mid + ball.rad, one)
    if lo <= 0:
        return None
    centre = Fraction(ball.mid, one)
    if lo <= centre.limit_denominator(10**30 - 1) <= hi:
        return None
    s = 11 - (ball.mid.bit_length() - ball.prec) * 30103 // 100000
    while math.floor(centre * Fraction(10) ** s) >= 10**12:
        s -= 1
    while math.floor(centre * Fraction(10) ** s) < 10**11:
        s += 1
    lo, hi = lo * 2 * Fraction(10) ** s, hi * 2 * Fraction(10) ** s
    if lo.denominator == 1 or math.floor(lo) != math.floor(hi):
        return None
    return oracles.report_text(centre)


def test_ball_repr_decides_every_ball_the_half_step_rule_decides():
    # seeded balls near points of the 12-digit grid, near ties half way
    # between two of them, near decade edges and around grid values with
    # trailing zeros, at two binary points: every ball the old rule decides
    # is decided with its text, and every decided ball's ends, centre and the
    # value it was built around print that text
    from qzeta.verify import _ball_repr

    rng = random.Random(25)
    told = new = 0
    for prec in (300, 600):
        for _ in range(1500):
            e = rng.choice((rng.randint(-70, -20), rng.randint(30, 45)))
            digits = rng.choice((
                rng.randint(10**11, 10**12 - 1), 10**11, 10**12 - 1, 12 * 10**10,
                123456789012, 999999999995,
            ))  # fmt: skip
            unit = Fraction(10) ** (e - 11)  # the grid step at this decade
            offset = rng.choice((
                0, Fraction(1, 2), Fraction(-1, 2), Fraction(rng.randint(-999, 999), 1000),
                Fraction(1, 2) + Fraction(rng.choice((1, -1)), 2 ** rng.randint(10, 60)),
                Fraction(rng.choice((1, -1)), 2 ** rng.randint(10, 60)),
            ))  # fmt: skip
            v = (digits + offset) * unit
            step = unit * 2**prec  # the grid step in units of the binary point
            scale = step.numerator.bit_length() - step.denominator.bit_length()
            ball = _ball(v, 2 ** rng.randint(0, max(0, scale + 1)), prec)
            expect = _half_step_ball_repr(ball)
            text = _ball_repr(ball)
            if expect is not None:
                told += 1
                assert text == expect, (v, ball)
            if text is not None:
                new += 1
                lo, hi = ball.bounds()
                centre = Fraction(ball.mid, 1 << prec)
                assert {oracles.report_text(w) for w in (lo, centre, hi, v)} == {text}, (v, ball)
    assert 400 < told <= new < 2000
    # a ball around a grid value with trailing zeros holds a value written
    # "1.2E-30" and others written "1.20000000000E-30": it cannot tell, but
    # a ball just beside it can
    for v, unit in (
        (Fraction(12, 10**31), Fraction(1, 10**41)),
        (Fraction(1, 10**30), Fraction(1, 10**41)),
        (Fraction(5, 10**40), Fraction(1, 10**51)),
    ):
        near = v + unit / 1000
        for rad in (1, 2**20):
            assert _ball_repr(_ball(v, rad)) is None, v
        assert _ball_repr(_ball(near, math.ceil(unit / 500 * 2**600), 600)) is None, v
        text = _ball_repr(_ball(near, 1, 600))
        assert text == oracles.report_text(near) != oracles.report_text(v), v


def test_ball_repr_gives_the_text_of_the_fraction_rule():
    # _ball_repr decides on the ball's integers what the Fraction rule of
    # oracles.ball_text decides, text for text or None, on seeded balls at
    # binary points from 2 to 2,400 bits: balls whose radius just reaches,
    # or just misses, the rational of small denominator nearest the centre,
    # which is the last convergent of its continued fraction or the
    # semiconvergent after it (each kind is counted); balls across a point
    # of the 12-digit grid, so that their ends' texts differ or the point
    # lies inside; balls with an end at an exact quotient; and balls of
    # random integers
    from qzeta.evaluators import Ball
    from qzeta.verify import _ball_repr

    def nearest_is_convergent(centre, best):
        # whether best, limit_denominator's answer, is a convergent of centre
        n, d, p0, q0, p1, q1 = centre.numerator, centre.denominator, 0, 1, 1, 0
        while q1 < best.denominator and d:
            a, (n, d) = n // d, (d, n % d)
            p0, q0, p1, q1 = p1, q1, p0 + a * p1, q0 + a * q1
        return Fraction(p1, q1) == best

    rng = random.Random(61)
    seen = collections.Counter()
    for i in range(2400):
        kind = ("nearest", "grid", "exact", "random")[i % 4]
        prec = rng.choice((2, 3, 64, 99, 100, 101, 2400, rng.randint(2, 2400)))
        if kind == "nearest":
            prec = rng.randint(200, 2400)
            v = Fraction(rng.getrandbits(rng.randint(1, 110)), rng.getrandbits(rng.randint(1, 110)) + 1)
            if i % 8 == 4:
                # continued fraction quotients to a denominator q1 of 10**27 to
                # 10**29, then one that takes the next past 10**30: the nearest
                # rational below that bound is then mostly a semiconvergent
                p0, q0, p1, q1 = 1, 0, rng.randint(0, 9), 1
                while q1 < 10**27:
                    a = rng.randint(1, min(10 ** rng.randint(0, 6), (10**29 - q0) // q1))
                    p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
                a = (10**30 - 1 - q0) // q1 + rng.randint(1, 3) + Fraction(rng.randint(1, 999), 1000)
                v = (a * p1 + p0) / (a * q1 + q0)
            mid = math.floor(v * 2**prec)
            centre = Fraction(mid, 2**prec)
            best = centre.limit_denominator(10**30 - 1)
            gap = math.ceil(abs(best - centre) * 2**prec)
            rad = max(gap + rng.choice((-1, 0)), 0)
            seen[kind, nearest_is_convergent(centre, best), rad == gap] += 1
        elif kind == "grid":
            prec = rng.randint(100, 2400)
            e = rng.randint(-60, 20)
            v = (rng.randint(10**11, 10**12 - 1) + rng.choice((0, Fraction(1, 2)))) * Fraction(10) ** (e - 11)
            step = math.ceil(Fraction(10) ** (e - 11) * 2**prec)
            mid = math.floor(v * 2**prec) + rng.randint(-step, step) // rng.choice((1, 10, 10**6))
            rad = max(1, step // rng.choice((1, 3, 10**3, 10**9, 2**rng.randint(0, 200))))
        elif kind == "exact":
            j = rng.randint(0, min(prec, 40))
            # an end at a dyadic of at most 40 places: compact, and often an
            # exact quotient of 12 digits
            lo = rng.randint(1, 10**6) << (prec - j)
            rad = rng.randint(0, 2 ** rng.randint(0, prec))
            mid = lo + rad
        else:
            mid, rad = rng.getrandbits(max(prec + rng.randint(-20, 20), 1)), rng.getrandbits(rng.randint(0, 80))
        expect = oracles.ball_text(mid, rad, prec)
        assert _ball_repr(Ball(mid, rad, prec)) == expect, (kind, mid, rad, prec)
        seen[kind, expect is None] += 1
    # every kind of ball came up, and texts were decided among them
    for convergent in (True, False):
        for inside in (True, False):
            assert seen["nearest", convergent, inside] > 20, seen
    for kind in ("nearest", "grid", "random"):
        assert seen[kind, False] > 20, seen
    assert seen["grid", True] > 100 and seen["exact", True] == 600, seen


def _compositions(weight: int):
    """Every composition of ``weight``, in a fixed order."""
    for cuts in range(2 ** (weight - 1)):
        comp, run = [], 1
        for p in range(weight - 1):
            if cuts >> p & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        yield tuple(comp)


def _wide_pools() -> list:
    # every composition of weight d + 1 whose pattern has depth d, for
    # d = 10, 11, 12: 512 to 2048 resolutions each, many suffixes shared
    from qzeta import compose

    comps = [
        comp
        for depth in (10, 11, 12)
        for comp in _compositions(depth + 1)
        if compose(comp)[1].depth == depth
    ]
    assert len(comps) == 33
    return comps


def _finite_bodies(comps, n_max, q) -> list:
    return [_body(verify_mhs(c, n_max=n_max, q_values=(q,))) for c in comps]


def test_finite_reports_do_not_depend_on_the_level_memo():
    # the exact engines read the levels that checks at one (q, n_max) share
    # from one memo: each report, run cold, warm, or after the others in a
    # shuffled order, is the same
    from qzeta.levels import Levels

    def cold(comps, n_max, q):
        out = []
        for c in comps:
            Levels.cache_clear()
            out += _finite_bodies([c], n_max, q)
        return out

    rng = random.Random(41)
    batteries = [(_wide_pools(), 6, Fraction(1, 2))]
    shallow = [(2, 1, 1, 3, 1), (1, 3, 1), (3, 1, 3, 1), (2, 2, 1)]
    batteries += [(shallow, 40, q) for q in (Fraction(1, 2), Fraction(2, 3), Fraction(5, 8))]
    for comps, n_max, q in batteries:
        expect = cold(comps, n_max, q)
        assert all(r["status"] == "exact-pass" for r in expect)
        Levels.cache_clear()
        assert _finite_bodies(comps, n_max, q) == expect
        assert _finite_bodies(comps, n_max, q) == expect
        order = rng.sample(range(len(comps)), len(comps))
        assert _finite_bodies([comps[i] for i in order], n_max, q) == [expect[i] for i in order]
        info = Levels.cache_info()
        assert info.hits > info.misses > 0, info


def test_finite_reports_from_four_threads_equal_the_serial_ones():
    # four threads read and fill the one level memo, switching as often as
    # the interpreter allows; every run-engine level looked up is counted
    # once, as a level read or a level summed
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from qzeta import compose
    from qzeta.levels import Levels

    def check(comp):
        return _finite_bodies([comp], 6, Fraction(1, 2))[0]

    comps = _wide_pools()
    serial = _finite_bodies(comps, 6, Fraction(1, 2))
    Levels.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(check, comps * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 3
    info = Levels.cache_info()
    assert info.hits > 0
    assert info.hits + info.misses == 3 * sum(compose(c)[1].depth for c in comps)


def test_level_memo_stays_within_its_bound_and_holds_one_q_and_n(monkeypatch):
    # with a bound that one to a few run columns fill, the run engine drops
    # the columns that do not fit, and a check still gives its cold report;
    # the memo never holds more than the bound, holds something exactly
    # when the bound fits the smallest first record, a pattern's deepest
    # column, on which every column of its record chains, and a check at
    # another q or n_max empties it
    from qzeta import compose, levels

    comps = [(2, 1, 1, 3, 1), (1, 1, 3, 1), (3, 1, 3, 1)]
    q = Fraction(5, 8)
    expect = _finite_bodies(comps, 30, q)
    levels.Levels.cache_clear()
    _finite_bodies(comps * 2, 30, q)
    firsts = []
    for comp in comps:
        pattern = compose(comp)[1]
        e, t, r = pattern.s[-1], pattern.t[-1], pattern.r[-1]
        key = (pattern.depth == 1, e.magnitude, e.sign, t, None if r is THETA else r, False)
        held = levels.Levels.store((5, 8, 30), levels.RUN_ROOT)[1]
        (deepest,) = levels.held_suffix(held, [key])[1]
        firsts.append(levels.charge(deepest))
    smallest = min(firsts)
    for bound in (0, smallest - 1, smallest, 200_000):
        monkeypatch.setattr(levels, "LEVEL_MEMO_BITS", bound)
        levels.Levels.cache_clear()
        for _ in range(3):
            for comp, body in zip(comps, expect):
                assert _finite_bodies([comp], 30, q) == [body]
                info = levels.Levels.cache_info()
                assert info.maxsize == bound and info.currsize <= bound, info
        assert (info.currsize > 0) == (bound >= smallest), (smallest, info)
    # the memo holds one (q, n_max): the first check at another empties it
    # and records nothing
    for other_q, other_n in ((Fraction(1, 3), 30), (q, 29)):
        _finite_bodies(comps[:1], 30, q)
        _finite_bodies(comps[:1], 30, q)
        assert levels.Levels.cache_info().currsize > 0
        _finite_bodies(comps[:1], other_n, other_q)
        assert levels.Levels.cache_info().currsize == 0


def test_a_stream_closed_early_records_nothing_and_the_memo_still_fills():
    # the run engine records a sum's columns only with its last row, and
    # the harmonic DP records none: streams read for a few rows at an
    # admitted (q, n) and closed record nothing and hold nothing back, so
    # the checks after them record as before and give their cold reports
    from itertools import islice

    from qzeta import QContext, compose
    from qzeta.evaluators import _mhs_rows, _pattern_rows
    from qzeta.indices import signed_string
    from qzeta.levels import Levels

    comps = [(2, 1, 1, 3, 1), (1, 1, 3, 1), (3, 1, 3, 1)]
    q, n_max = Fraction(5, 8), 30
    cold = []
    for comp in comps:
        Levels.cache_clear()
        cold += _finite_bodies([comp], n_max, q)
    Levels.cache_clear()
    assert _finite_bodies(comps[:1], n_max, q) == cold[:1]  # admits the run engine
    assert Levels.cache_info().currsize == 0
    for comp in comps[1:]:
        ctx = QContext(q)
        streams = [
            _pattern_rows(ctx, compose(comp)[1], n_max),
            _mhs_rows(ctx, signed_string(comp), n_max, star=True),
        ]
        for stream in streams:
            assert len(list(islice(stream, 4))) == 4
            stream.close()
        assert Levels.cache_info().currsize == 0
    assert _finite_bodies(comps, n_max, q) == cold
    assert Levels.cache_info().currsize > 0
    assert _finite_bodies(comps, n_max, q) == cold


def test_level_memo_records_the_deepest_columns_that_fit_and_leaves_no_gap(monkeypatch):
    # a record goes deepest first and ends at the first new column that
    # does not fit, so every level held chains onto a held suffix; a
    # record at a generation that is gone writes nothing
    from qzeta import levels

    memo = levels.Levels
    monkeypatch.setattr(levels, "LEVEL_MEMO_BITS", 100)
    memo.cache_clear()
    at, root, keys = (1, 2, 3), levels.RUN_ROOT, ["a", "b", "c"]

    def lookup():
        generation, held, room = memo.store(at, root)
        suffixes, found = levels.held_suffix(held, keys)
        return generation, suffixes, found, room

    assert lookup()[0] is None  # a first sum records nothing
    generation, (a, b, c), found, room = lookup()
    assert (found, room) == ([], 100)
    columns = [(c, "column c", 30), (b, "column b", 80), (a, "column a", 30)]
    memo.hold(generation, columns, 0, 3)
    assert memo.cache_info().currsize == 30
    generation, _, found, room = lookup()
    assert found == ["column c"] and room == 70
    memo.hold(generation, [(b, "column b", 69), (a, "column a", 1)], 1, 2)
    assert memo.cache_info().currsize == 100
    assert lookup()[2:] == (["column a", "column b", "column c"], 0)
    memo.store((1, 2, 4), root)  # another (q, n) empties the memo
    memo.hold(generation, [(c, "column c", 1)], 0, 0)
    assert memo.cache_info().currsize == 0


def test_level_memo_bound_holds_when_only_part_of_a_check_fits(monkeypatch):
    # only the run engine records a finite check's levels, the harmonic DP
    # none; with a bound below the columns one check records, the memo
    # records the deepest ones that fit, holds at most the bound, and the
    # reports are the cold ones
    from qzeta import QContext, compose
    from qzeta.evaluators import _mhs_rows, _pattern_rows
    from qzeta.indices import signed_string
    from qzeta import levels

    first, comp = (1, 1, 3, 1), (2, 1, 1, 3, 1)
    q, n_max = Fraction(5, 8), 30

    def side_bits(stream):
        levels.Levels.cache_clear()
        _finite_bodies([first], n_max, q)  # admits the run engine, records nothing
        for _ in stream(QContext(q)):
            pass
        return levels.Levels.cache_info().currsize

    right = side_bits(lambda ctx: _pattern_rows(ctx, compose(comp)[1], n_max))
    assert right > 0
    assert side_bits(lambda ctx: _mhs_rows(ctx, signed_string(comp), n_max, star=True)) == 0
    expect = _finite_bodies([first, comp], n_max, q)
    for bound in (right // 2, right - 1):
        monkeypatch.setattr(levels, "LEVEL_MEMO_BITS", bound)
        levels.Levels.cache_clear()
        assert _finite_bodies([first, comp], n_max, q) == expect
        info = levels.Levels.cache_info()
        assert 0 < info.currsize <= bound, (bound, info)
        assert _finite_bodies([first, comp], n_max, q) == expect
        assert levels.Levels.cache_info().currsize <= bound
    monkeypatch.setattr(levels, "LEVEL_MEMO_BITS", right)
    levels.Levels.cache_clear()
    assert _finite_bodies([first, comp], n_max, q) == expect
    assert levels.Levels.cache_info().currsize == right


def _left_ball_key(ball) -> tuple:
    return ball.value.mid, ball.value.rad, ball.value.prec, ball.terms


def test_left_balls_read_from_the_level_memo_equal_cold_ones():
    # the left ball's levels 1..m-1 go through the level memo at
    # (q, K, binary point): over the 175 weight-12 compositions of depth 2-4
    # at q = 1/2 and eps = 1e-25, every ball read warm, in order and in a
    # shuffled order, is bit for bit the cold one, and every level the memo
    # holds is the level a cold sweep sums, so no read wrote into it
    from qzeta.evaluators import _ball_sweep, _harmonic_runs, q_zeta_enclosure
    from qzeta.indices import signed_string
    from qzeta.levels import WEAK_ROOT, Levels, held_suffix

    q, eps = Fraction(1, 2), Fraction(1, 10**25)
    comps = _weight_twelve_depth_two_to_four()
    assert len(comps) == 175
    cold = []
    for comp in comps:
        Levels.cache_clear()
        cold.append(_left_ball_key(q_zeta_enclosure(q, comp, eps=eps, star=True)))
    Levels.cache_clear()
    order = random.Random(44).sample(range(len(comps)), len(comps))
    for sequence in (range(len(comps)), order):
        warm = [q_zeta_enclosure(q, comps[i], eps=eps, star=True) for i in sequence]
        assert [_left_ball_key(ball) for ball in warm] == [cold[i] for i in sequence]
    info = Levels.cache_info()
    assert info.hits > info.misses > 0 and info.currsize > 0, info
    K, prec = cold[0][3], cold[0][2]
    assert {(key[2], key[3]) for key in cold} == {(prec, K)}
    for comp in comps:
        entries = signed_string(comp)
        keys = [2 * e.magnitude + (e.sign < 0) for e in entries[1:]]
        held = held_suffix(Levels.store((1, 2, K, prec), WEAK_ROOT)[1], keys)[1]
        assert held, comp
        levels = _ball_sweep(_harmonic_runs(q, entries, K), K, prec, True)
        assert held == levels[len(entries) - len(held) : len(entries)], comp


def test_barred_left_balls_read_from_the_level_memo_equal_cold_ones():
    # strings that share suffixes and differ only in a bar, in strict and
    # weak descent: a level is keyed by its whole suffix with each entry's
    # bar and by the descent, so every ball read warm is the cold one
    from qzeta.evaluators import q_zeta_enclosure
    from qzeta.levels import Levels

    q, eps = Fraction(1, 2), Fraction(1, 10**12)
    tails = [(2, 1, 1), (2, -1, 1), (-2, 1, 1), (2, 1, -1), (0, -1, 1)]
    strings = [head + tail for head in ((), (1,), (-1,), (3, -2)) for tail in tails]
    cases = [(s, star) for s in strings for star in (False, True)]

    def ball(case):
        s, star = case
        return _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=star))

    cold = []
    for case in cases:
        Levels.cache_clear()
        cold.append(ball(case))
    Levels.cache_clear()
    rng = random.Random(45)
    for _ in range(3):
        order = rng.sample(range(len(cases)), len(cases))
        assert [ball(cases[i]) for i in order] == [cold[i] for i in order]
    info = Levels.cache_info()
    assert info.hits > info.misses, info


def test_left_ball_memo_admits_from_the_second_check_and_holds_one_k_and_binary_point():
    # the first check at (q, K, binary point) records nothing, the second
    # records its levels 1..m-1 and the third reads them; a check at
    # another K or another binary point empties the memo
    from qzeta.evaluators import q_zeta_enclosure
    from qzeta.levels import Levels

    q, eps, s = Fraction(1, 2), Fraction(1, 10**25), (2, 1, 1, 3, 1)
    Levels.cache_clear()
    first = _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=True))
    assert Levels.cache_info()[:2] == (0, 4) and Levels.cache_info().currsize == 0
    assert _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=True)) == first
    assert Levels.cache_info()[:2] == (0, 8) and Levels.cache_info().currsize > 0
    assert _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=True)) == first
    assert Levels.cache_info()[:2] == (4, 8)
    prec = first[2]
    for other in ({"eps": eps / 1000}, {"eps": eps, "prec": 2 * prec}):
        for _ in range(2):
            q_zeta_enclosure(q, s, eps=eps, star=True)
        assert Levels.cache_info().currsize > 0
        q_zeta_enclosure(q, s, star=True, **other)
        assert Levels.cache_info().currsize == 0, other


def test_a_long_string_reads_every_level_from_the_level_memo():
    # a level is held under its whole suffix, 299 slot keys for level 1 of
    # a string of 300 entries: the first call admits, the second records
    # all 299 levels and the third reads them, and all give the same ball
    from qzeta.evaluators import q_zeta_enclosure
    from qzeta.levels import LEVEL_MEMO_BITS, Levels

    q, s = Fraction(1, 2), (2,) * 300
    Levels.cache_clear()
    first = q_zeta_enclosure(q, s, star=True)
    assert q_zeta_enclosure(q, s, star=True) == first
    assert Levels.cache_info() == (0, 598, LEVEL_MEMO_BITS, 60_268_658)
    assert q_zeta_enclosure(q, s, star=True) == first
    assert Levels.cache_info() == (299, 598, LEVEL_MEMO_BITS, 60_268_658)


def test_right_balls_read_from_the_level_memo_equal_cold_ones():
    # the right ball's run columns go through the level memo at (q), keyed
    # by (K, s, P_j, beta, j == m, binary point): over the 175 weight-12
    # compositions of depth 2-4 at q = 1/2, and a few at 5/8 and 9/10, every
    # ball read warm, in order and in a shuffled order, is bit for bit the
    # cold one, and every column held is the one _run_column builds from the
    # exponents of its key, runs into the exact 1 among them
    from qzeta import compose
    from qzeta.evaluators import _run_column, frakz_enclosure
    from qzeta.levels import COLUMN_ROOT, Levels

    eps = Fraction(1, 10**25)
    few = [(2, 1, 1, 3, 1), (3, 1, 3, 1), (4, 1, 3, 1), (2, 3, 1)]
    batteries = [(Fraction(1, 2), _weight_twelve_depth_two_to_four())]
    batteries += [(q, few) for q in (Fraction(5, 8), Fraction(9, 10))]
    rng = random.Random(46)
    for q, comps in batteries:
        a, b = q.numerator, q.denominator
        patterns = [compose(comp)[1] for comp in comps]
        cold = []
        for pattern in patterns:
            Levels.cache_clear()
            cold.append(_left_ball_key(frakz_enclosure(q, pattern, eps=eps)))
        Levels.cache_clear()
        order = rng.sample(range(len(comps)), len(comps))
        for sequence in (range(len(comps)), order):
            warm = [frakz_enclosure(q, patterns[i], eps=eps) for i in sequence]
            assert [_left_ball_key(ball) for ball in warm] == [cold[i] for i in sequence], q
        info = Levels.cache_info()
        assert info.hits > 0 < info.misses and info.currsize > 0, info
        held = Levels.store((a, b), COLUMN_ROOT)[1]
        last = 0
        for (K, s, lift, beta, into_one, prec), column in held.items():
            steps = [k * (k - 1) // 2 if into_one else k - 1 for k in range(1, K + 1)]
            expos = [lift * step + beta * k for k, step in enumerate(steps, 1)]
            assert column == _run_column(a, b, s, expos, prec)
            last += into_one
        assert 0 < last < len(held), q


def test_right_ball_memo_admits_from_the_second_ball_and_holds_one_q_per_root():
    # the first right ball at a q records nothing, the second records its
    # columns and the third reads every one; a right ball at another q
    # empties the columns alone, and the left balls' levels stay held
    from qzeta import compose
    from qzeta.evaluators import frakz_enclosure, q_zeta_enclosure
    from qzeta.levels import Levels

    q, eps, s = Fraction(1, 2), Fraction(1, 10**25), (2, 1, 1, 3, 1)
    pattern = compose(s)[1]
    runs = pattern.depth * (pattern.depth + 1) // 2
    Levels.cache_clear()
    first = _left_ball_key(frakz_enclosure(q, pattern, eps=eps))
    hits, built, _, held = Levels.cache_info()
    assert held == 0 and hits + built == runs and built > 0
    assert _left_ball_key(frakz_enclosure(q, pattern, eps=eps)) == first
    assert Levels.cache_info().currsize > 0
    assert _left_ball_key(frakz_enclosure(q, pattern, eps=eps)) == first
    assert Levels.cache_info()[:2] == (3 * runs - 2 * built, 2 * built)
    columns = Levels.cache_info().currsize
    for _ in range(2):
        left = _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=True))
    left_bits = Levels.cache_info().currsize - columns
    frakz_enclosure(Fraction(5, 8), pattern, eps=eps)
    assert Levels.cache_info().currsize == left_bits > 0
    hits = Levels.cache_info().hits
    assert _left_ball_key(q_zeta_enclosure(q, s, eps=eps, star=True)) == left
    assert Levels.cache_info().hits == hits + len(s) - 1


def test_right_ball_counts_only_the_column_lookups_it_makes():
    # a right ball counts one memo read or build per column it looks up:
    # every run of the merged pattern at K > 0, and none at K = 0, where the
    # sweep returns before reading a column
    from qzeta import compose
    from qzeta.evaluators import Ball, frakz_enclosure
    from qzeta.levels import Levels

    pattern = compose((2, 1))[1]
    runs = pattern.depth * (pattern.depth + 1) // 2
    Levels.cache_clear()
    for _ in range(3):
        ball = frakz_enclosure(Fraction(1, 2), pattern, eps=100)
        assert ball.terms == 0 and ball.value == Ball(0, 0, ball.value.prec)
        assert Levels.cache_info()[:2] == (0, 0)
    assert Levels.cache_info().currsize == 0
    for calls in range(1, 4):
        assert frakz_enclosure(Fraction(1, 2), pattern, eps=Fraction(1, 10**6)).terms > 0
        hits, misses, _, _ = Levels.cache_info()
        assert hits + misses == calls * runs


def test_right_columns_held_at_a_stale_generation_are_dropped():
    # columns built at a q whose columns were emptied meanwhile (by a ball
    # at another q in another thread) land in no dict and count no bits
    from qzeta.levels import COLUMN_ROOT, Levels, charge

    Levels.cache_clear()
    # the first ball records nothing
    assert Levels.store((1, 2), COLUMN_ROOT)[:2] == (None, {})
    generation, held, _ = Levels.store((1, 2), COLUMN_ROOT)
    assert generation is not None
    Levels.hold(generation, [("a", [1, 2], charge([1, 2]))], 0, 1)
    assert held == {"a": [1, 2]} and Levels.cache_info().currsize == charge([1, 2])
    # another q empties the columns
    assert Levels.store((1, 3), COLUMN_ROOT)[0] is None
    assert Levels.cache_info().currsize == 0
    Levels.hold(generation, [("b", [3], charge([3]))], 0, 1)
    assert Levels.cache_info().currsize == 0 and "b" not in held
    assert Levels.store((1, 3), COLUMN_ROOT)[1] == {}
    assert Levels.cache_info()[:2] == (0, 2)


def test_finite_and_qseries_checks_in_turn_read_levels_on_both_sides():
    # each root keeps its own (q, n) or (q, K, binary point), so checks that
    # alternate a finite and a q-series check at one q read levels on both
    # sides, and each gives its cold report
    from qzeta.levels import Levels

    comps = [(2, 1, 1, 3, 1), (3, 1, 3, 1), (2, 3, 1), (4, 1, 3, 1), (2, 2, 1), (5, 1, 3, 1)]
    checks = {
        "finite": lambda comp: _body(verify_mhs(comp, n_max=20)),
        "qseries": lambda comp: _body(verify_qmzsv(comp)),
    }
    cold = []
    for comp in comps:
        for check in checks.values():
            Levels.cache_clear()
            cold.append(check(comp))
    Levels.cache_clear()
    hits = dict.fromkeys(checks, 0)
    warm = []
    for comp in comps:
        for side, check in checks.items():
            before = Levels.cache_info().hits
            warm.append(check(comp))
            hits[side] += Levels.cache_info().hits - before
    assert warm == cold
    assert all(hits.values()), hits


def test_qseries_reports_stay_within_a_small_level_memo_bound(monkeypatch):
    # with a bound that a few right columns (about 10,000 bits each) or one
    # to a few left ball levels (about 69,000) fill, the balls record only
    # what fits, the reports are the cold ones, and the memo never holds
    # more than the bound; it holds something exactly when the bound fits
    # the smallest first record: a right column, each held on its own, or
    # the left balls' deepest level, (1), on which every left level chains
    from qzeta import levels
    from qzeta.evaluators import _default_prec, _harmonic_truncation

    comps = [(2, 1, 1, 3, 1), (3, 1, 3, 1), (2, 3, 1), (4, 1, 3, 1)]
    expect = []
    for comp in comps:
        levels.Levels.cache_clear()
        expect.append(_body(verify_qmzsv(comp)))
    for _ in range(2):
        for comp in comps:
            verify_qmzsv(comp)
    columns = levels.Levels.store((1, 2), levels.COLUMN_ROOT)[1]
    firsts = [levels.charge(column) for column in columns.values()]
    q, eps = Fraction(1, 2), Fraction(1, 4 * 10**25)  # each side's budget
    (K,) = {_harmonic_truncation(q, len(comp), eps)[0] for comp in comps}
    held = levels.Levels.store((1, 2, K, _default_prec(eps)), levels.WEAK_ROOT)[1]
    deepest = levels.held_suffix(held, [2])[1]
    firsts += [levels.charge(xs + es) for xs, es, _, _ in deepest]
    assert len(deepest) == 1 and len(firsts) > 1
    smallest = min(firsts)
    for bound in (0, 50_000, 100_000, 300_000):
        monkeypatch.setattr(levels, "LEVEL_MEMO_BITS", bound)
        levels.Levels.cache_clear()
        for _ in range(3):
            assert [_body(verify_qmzsv(comp)) for comp in comps] == expect
            info = levels.Levels.cache_info()
            assert info.maxsize == bound and info.currsize <= bound, info
        assert (info.currsize > 0) == (bound >= smallest), (smallest, info)
    assert info.hits > 0, info
