"""Report bytes pinned by sha256 digests.

Each digest covers the JSON of a list of exact reports, every key but
``elapsed_ms``, so a change to the arithmetic that moves one digit, one
residual line or one status shows here.  Only exact reports are pinned:
their fields are rationals and labels, which do not vary across platforms.
"""

import hashlib
import json
from fractions import Fraction

import pytest

import qzeta.evaluators
import qzeta.verify
from qzeta import lemma_suite, symmetric_pair_check, verify_mhs, verify_qmzsv


def _digest(reports) -> str:
    h = hashlib.sha256()
    for rep in reports:
        fields = rep.to_dict()
        del fields["elapsed_ms"]
        # a perturbed delta is a Fraction, which JSON cannot write natively
        h.update(json.dumps(fields, sort_keys=True, default=str).encode())
        h.update(b"\n")
    return h.hexdigest()


def _finite(monkeypatch):
    return [verify_mhs((2, 1, 1, 3, 1), 12, (Fraction(5, 8), Fraction(2, 9)))]


def _finite_halved_delta(monkeypatch):
    compose = qzeta.verify.compose

    def halved(comp):
        d, pattern = compose(comp)
        return Fraction(d, 2), pattern

    monkeypatch.setattr(qzeta.verify, "compose", halved)
    reports = [verify_mhs((2, 1, 1, 3, 1), 12, (Fraction(5, 8), Fraction(2, 9)))]
    assert reports[0].status == "fail"
    return reports


def _qseries(monkeypatch):
    return [verify_qmzsv(comp, Fraction(1, 2)) for comp in ((2, 1, 2, 1, 3, 1), (5, 5, 1))]


def _lemmas(monkeypatch):
    return lemma_suite(n_max=12, q_values=(Fraction(5, 7),))


# at q = 5/8, b - a = 3, so these reports pass through integer tables whose
# size depends on how the q-integer is written; at q = 1/2 they would not
def _qseries_five_eighths(monkeypatch):
    return [verify_qmzsv(comp, Fraction(5, 8)) for comp in ((2, 1, 2, 1, 3, 1), (5, 5, 1))]


# at q = 9/10 the q-series tables' fixed-point recurrences carry the most
# rounding of any digest here, as it grows with b / (b - a) = 10, over the
# longest truncations K
def _qseries_nine_tenths(monkeypatch):
    return [verify_qmzsv(comp, Fraction(9, 10)) for comp in ((2, 1, 2, 1, 3, 1), (5, 5, 1))]


def _pair_five_eighths(monkeypatch):
    return [symmetric_pair_check(1, 1, q=Fraction(5, 8))]


DIGESTS = {
    "finite": (
        _finite,
        "bac9ed69e1213a4fb712f4aac0a0847c24706f994873fe0b6c5ce9d671034f2d",
    ),
    "finite-halved-delta": (
        _finite_halved_delta,
        "d639a075e6470e264d9ba483dbe198d9316becef13634170603e8fd14a9015d2",
    ),
    "qseries": (
        _qseries,
        "474aa6fdef635d96ac86e3b7cc9ce99084ec82827ae31d36463a1391949dcc7d",
    ),
    "lemmas": (
        _lemmas,
        "40f41f1dca5a4c5af7a192160830bee5b17ff4e9e159c0edf7df57d24a4b5586",
    ),
    "qseries-5/8": (
        _qseries_five_eighths,
        "d37f65c7f4c6cbec37e8b7af4346e7ae23a17cc87b68fc17b2fe69b0f8e53862",
    ),
    "qseries-9/10": (
        _qseries_nine_tenths,
        "0b251bfef777b1ef163ed10b251ba3d5c6cdbcf22226feb4f1694448ccb42eb8",
    ),
    "symmetric-pair-5/8": (
        _pair_five_eighths,
        "41681a5e9a7936f0bc866e1b6f677286b3c72e0dcc08e5de2516674bebefb8a6",
    ),
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_digest(name, monkeypatch):
    build, expect = DIGESTS[name]
    assert _digest(build(monkeypatch)) == expect


def _count_exact_sums(monkeypatch) -> list:
    """Patch both exact engines, the harmonic DP and the run engine, to
    record the strings and patterns they sum."""
    calls = []

    def counted(name):
        real = getattr(qzeta.evaluators, name)

        def call(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(qzeta.evaluators, name, call)

    counted("_mhs_rows")
    counted("_inner_terms")
    return calls


def test_qseries_left_side_is_decided_by_the_enclosure(monkeypatch):
    calls = _count_exact_sums(monkeypatch)
    # and by the first ball, at P = 300: a looser radius would move a case
    # onto the balls at 2P and beyond without changing its report
    precs = []
    enclosure = qzeta.verify.q_zeta_enclosure

    def recorded(*args, **kwargs):
        lhs = enclosure(*args, **kwargs)
        precs.append(lhs.value.prec)
        return lhs

    monkeypatch.setattr(qzeta.verify, "q_zeta_enclosure", recorded)
    assert _digest(_qseries(monkeypatch)) == DIGESTS["qseries"][1]
    assert calls == []
    assert precs == [300, 300]


def test_qseries_checks_are_refused_when_no_ball_decides(monkeypatch):
    # every ball is widened to +-1 around its centre, so none of those at
    # P, 2P, 4P and 8P can decide a report: each check of the qseries
    # digest and each symmetric pair is refused, and no series is summed
    # exactly on the way
    calls = _count_exact_sums(monkeypatch)
    precs = {"q_zeta_enclosure": [], "frakz_enclosure": []}

    def widened(name):
        real = getattr(qzeta.verify, name)

        def call(*args, **kwargs):
            value = real(*args, **kwargs)
            ball = value.value
            precs[name].append(ball.prec)
            return value._replace(value=qzeta.evaluators.Ball(ball.mid, 1 << ball.prec, ball.prec))

        monkeypatch.setattr(qzeta.verify, name, call)

    widened("q_zeta_enclosure")
    widened("frakz_enclosure")
    refused = "no ball down to the binary point 2\\*\\*-2400 decides the report"
    for comp in ((2, 1, 2, 1, 3, 1), (5, 5, 1)):
        with pytest.raises(ValueError, match=refused):
            verify_qmzsv(comp, Fraction(1, 2))
    ladder = [300, 600, 1200, 2400]
    assert precs == {"q_zeta_enclosure": ladder * 2, "frakz_enclosure": ladder * 2}
    # a pair sums four strings and one pattern on each rung
    pairs = [(0, 0), (1, 2), (2, 1)]
    for name in precs:
        precs[name].clear()
    for a, b in pairs:
        with pytest.raises(ValueError, match=refused):
            symmetric_pair_check(a, b)
    assert precs == {
        "q_zeta_enclosure": [p for p in ladder for _ in range(4)] * len(pairs),
        "frakz_enclosure": ladder * len(pairs),
    }
    assert calls == []
