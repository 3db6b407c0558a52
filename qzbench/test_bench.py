"""Tests of the benchmark's own derivations, checks and tracer.

    python3 -m pytest qzbench/test_bench.py

The negative control: a tampered report (flipped status, wrong ``checks``,
a field that changes its digest, or a raised call) must be counted as a
failed case, so the run's ``fail_ratio`` rises and ``pass_ratio`` falls.
"""

import dataclasses
import functools
import itertools
from fractions import Fraction

import pytest

import reference
from layers import Tracer
from run import tally
from workloads import WORKLOADS, Case, global_sign, pattern_depth, resolutions
from worker import import_qzeta, run_cases

qzeta = import_qzeta()

FINITE = Case("verify_mhs", (2, 1, 3), {"n_max": 6, "q_values": (Fraction(2, 3),)})
SMALL = [
    FINITE,
    Case("verify_mhs", (3, 1, 1), {"n_max": 6, "q_values": (Fraction(1, 2),)}),
    Case("verify_qmzsv", (2, 2, 1), {"q": Fraction(1, 2), "eps": Fraction(1, 10**25)}),
    Case("verify_classical", (3, 1), {"K": 10**4, "tol": 1e-2}),
]


def test_derived_depth_and_sign_match_compose():
    for weight in range(1, 9):
        for cuts in itertools.product((0, 1), repeat=weight - 1):
            bounds = [0, *[i + 1 for i, c in enumerate(cuts) if c], weight]
            comp = tuple(b - a for a, b in zip(bounds, bounds[1:]))
            delta, pattern = qzeta.compose(comp)
            assert pattern.depth == pattern_depth(comp), comp
            assert delta == global_sign(comp), comp
            assert len(qzeta.expand(pattern)) == resolutions(comp), comp


def test_batches_repeat_per_seed():
    for workload in WORKLOADS.values():
        batch = workload.cases(3, 5)
        assert batch == workload.cases(3, 5)
        assert batch != workload.cases(4, 5)
    qs = [c.kwargs["q_values"][0] for c in WORKLOADS["finite-long"].cases(1, 20)]
    assert len(set(qs)) == len(qs)


def test_untampered_reports_pass():
    attempted, failures = tally(run_cases(SMALL, qzeta.verify))
    assert (attempted, failures) == (len(SMALL), [])


def _raise(report):
    raise ArithmeticError("injected")


TAMPER = {
    "flipped status": lambda r: dataclasses.replace(r, status="fail"),
    "wrong checks": lambda r: dataclasses.replace(r, params={**r.params, "checks": 1}),
    "altered digest": lambda r: dataclasses.replace(r, residuals=["q=2/3 n=6: 1/9"]),
    "raised": _raise,
}


@pytest.mark.parametrize("how", sorted(TAMPER))
def test_tampered_report_counts_as_failed(how, monkeypatch):
    original = qzeta.verify.verify_mhs

    def tampered(composition, **kwargs):
        report = original(composition, **kwargs)
        return TAMPER[how](report) if tuple(composition) == FINITE.composition else report

    monkeypatch.setattr(qzeta.verify, "verify_mhs", tampered)
    attempted, failures = tally(run_cases(SMALL, qzeta.verify))
    assert attempted == len(SMALL)
    assert len(failures) == 1, failures


def test_tracer_counts_one_case_and_restores_library():
    original = qzeta.verify.verify_mhs
    tracer = Tracer()
    tracer.install(qzeta)
    try:
        tally(run_cases([FINITE], qzeta.verify))
    finally:
        tracer.uninstall()
    assert qzeta.verify.verify_mhs is original
    assert "counted" not in qzeta.QContext.binom_ratio.__qualname__
    metrics = {k: v for k, (v, _) in tracer.metrics(1.0, 0.0).items()}
    terms = resolutions(FINITE.composition)
    assert metrics["rules.compose.calls"] == 1
    assert metrics["expansion.expand.triples"] == terms
    assert metrics["evaluators.mollified_mhs_many.calls"] == terms
    assert metrics["evaluators.mhs_many.calls"] == 1
    assert metrics["qarith.contexts"] == 1
    assert metrics["evaluators.result_bits_max"] > 0
    assert 0 < metrics["qarith.binom_ratio.hit_ratio"] < 1


def test_reference_slice_follows_each_case():
    slowdown = functools.partial(reference.slowdown, "small-fractions")
    records = run_cases(SMALL[:2], qzeta.verify, slowdown)
    assert all(r["slowdown"] > 0 for r in records)
    assert "slowdown" not in run_cases(SMALL[:1], qzeta.verify)[0]
