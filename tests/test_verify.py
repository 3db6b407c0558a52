import json
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
    q_zeta,
    rational_repr,
    run_family,
    sample_compositions,
    symmetric_pair_check,
    verify_classical,
    verify_mhs,
    verify_qmzsv,
)
from qzeta.verify import VerificationReport


def test_rational_repr():
    assert rational_repr(Fraction(3, 7)) == "3/7"
    assert rational_repr(Fraction(-5)) == "-5"
    huge = Fraction(17, 10 ** 400)
    text = rational_repr(huge)
    assert "E-" in text and len(text) < 40
    assert text.partition("E")[2] == "-399"
    assert abs(Fraction(text.replace("E", "e")) / huge - 1) < Fraction(1, 10**10)


def _decimal_division_repr(x: Fraction) -> str:
    # rational_repr as it was before it divided integers itself
    from decimal import Decimal, localcontext

    if abs(x.numerator) < 10**30 and x.denominator < 10**30:
        return str(x)
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


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
    # report values of the size a certified series check produces
    ctx = QContext(Fraction(1, 2))
    lhs = q_zeta(ctx, (2, 1, 1, 3, 1), eps=Fraction(1, 10**25), star=True)
    rhs = q_zeta(ctx, (2, 1, 1, 3, 1), eps=Fraction(1, 10**24), star=True)
    values += [lhs.value, -lhs.value, lhs.value - rhs.value, lhs.tail_bound, 1 / lhs.value]
    for x in values:
        assert rational_repr(x) == _decimal_division_repr(x), x


def test_report_json_round_trip():
    rep = verify_mhs((2, 1), n_max=6)
    assert rep.passed
    text = rep.to_json()
    data = json.loads(text)
    assert json.dumps(data, indent=2, sort_keys=True) == text
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
    }
    assert data["status"] == "exact-pass"
    assert data["discrepancy"] == "0"


def test_verify_mhs_multi_q():
    rep = verify_mhs((1, 1, 3), n_max=8, q_values=(Fraction(1, 2), Fraction(2, 3)))
    assert rep.passed
    assert rep.status == "exact-pass"


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
    reps = v.lemma_suite(
        n_max=8, samples=4, inverse_c_max=2, inverse_n_max=6, head_n_max=6, step_a_max=2
    )
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


def test_verify_classical_small_then_better():
    lo = verify_classical((2, 2), K=10_000, tol=1e-6)
    hi = verify_classical((2, 2), K=100_000, tol=1e-6)
    assert lo.passed and hi.passed
    assert float(hi.discrepancy) < float(lo.discrepancy)


def test_lemma_suite_small():
    reps = lemma_suite(
        n_max=10,
        samples=4,
        inverse_c_max=2,
        inverse_n_max=8,
        head_n_max=8,
        step_a_max=2,
    )
    assert [r.case for r in reps] == list(LEMMA_PARTS)
    assert all_passed(reps)


def test_lemma_reports_fail_under_perturbed_kernels(monkeypatch):
    config = dict(
        n_max=8, samples=3, inverse_c_max=2, inverse_n_max=6, head_n_max=6, step_a_max=2
    )
    clean = lemma_suite(**config)
    real_ratio, real_kernel = QContext.binom_ratio, QContext.a_kernel
    real_row = QContext.gauss_row
    tiny = Fraction(1, 10**30)

    def ratio(self, n, k):
        return real_ratio(self, n, k) + (tiny if 1 <= k <= n else 0)

    def row(self, n, stop):
        # the finite sums read the prefactor from these integer rows
        return [g + (1 if j else 0) for j, g in enumerate(real_row(self, n, stop))]

    monkeypatch.setattr(QContext, "binom_ratio", ratio)
    monkeypatch.setattr(QContext, "a_kernel", lambda self, n, k: real_kernel(self, n, k) + tiny)
    monkeypatch.setattr(QContext, "gauss_row", row)
    labels = {
        "alternating-kernel-sum": r"q=\S+ n=\d+ l=\d+",
        "weighted-kernel-sum": r"q=\S+ n=\d+ l=\d+",
        "inverse-power-expansion": r"c=\d+ n=\d+",
        "head-reduction": r"a=-?\d+ b=\d+ c=\d+ r=\S+ tail=\[[^\]]+\] n=\d+",
        "kernel-step": r"q=\S+ n=\d+ k=\d+ a=\d+",
    }
    reports = []
    for part, before in zip(LEMMA_PARTS, clean):
        (rep,) = lemma_suite(parts=(part,), **config)
        assert rep.status == "fail" and not rep.passed
        assert rep.discrepancy is None
        assert 1 <= len(rep.residuals) <= 16
        for line in rep.residuals:
            assert re.fullmatch(labels[part] + r": \S+", line), line
        assert rep.params["checks"] == before.params["checks"]
        reports.append(rep)
    # the cap is reached, not just respected
    assert max(len(rep.residuals) for rep in reports) == 16


def test_lemma_suite_kernel_limit_cap(monkeypatch):
    # an n_max over the cap is refused before any part builds a kernel row
    def never(*args):
        raise AssertionError("a kernel row was built")

    import qzeta.verify as v

    monkeypatch.setattr(QContext, "binom_ratio", never)
    cap = v._MAX_KERNEL_LIMIT
    for parts in (None, ("kernel-step",), ("weighted-kernel-sum", "alternating-kernel-sum")):
        with pytest.raises(ValueError, match=f"{cap + 1} exceeds {cap}"):
            lemma_suite(n_max=cap + 1, parts=parts)


def test_lemma_suite_part_selection():
    reps = lemma_suite(n_max=6, parts=("alternating-kernel-sum",))
    assert len(reps) == 1 and reps[0].passed
    with pytest.raises(ValueError):
        lemma_suite(parts=("no-such-part",))


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


def test_sample_compositions_deterministic():
    xs = sample_compositions(25, max_depth=5, max_weight=9, seed=7)
    ys = sample_compositions(25, max_depth=5, max_weight=9, seed=7)
    zs = sample_compositions(25, max_depth=5, max_weight=9, seed=8)
    assert xs == ys
    assert xs != zs
    assert len(xs) == 25
    for comp in xs:
        assert 1 <= len(comp) <= 5
        assert sum(comp) <= 9
        assert all(e >= 1 for e in comp)


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


def test_run_family():
    reps = run_family("twos-ones", max_weight=6, n_max=6)
    assert reps and all_passed(reps)


def test_classical_battery_shapes():
    # run the cheap member only; the full battery belongs to the acceptance suite
    rep = verify_classical((2, 1), K=10**6, tol=1e-5, case="depth-two limit")
    assert rep.passed
    assert rep.params["K"] == 10**6
