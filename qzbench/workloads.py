"""Seeded inputs and output checks for the qzeta benchmark.

This module imports nothing from qzeta: every value a check compares
against is derived here from the generated inputs alone, so a change to the
library cannot move its own yardstick.

A composition's pattern depth m follows from how ``rules.compose`` builds the
pattern block by block: every 1 adds one slot, every entry e >= 3 adds e - 2
slots, and a composition that does not end in 1 gets one more slot for its
final block.  The expansion has 2**(m-1) resolutions and the global sign is
+1 exactly when the composition ends in 1.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Optional


def pattern_depth(composition: tuple) -> int:
    ones = sum(1 for e in composition if e == 1)
    wide = sum(e - 2 for e in composition if e >= 3)
    return ones + wide + (composition[-1] != 1)


def global_sign(composition: tuple) -> int:
    return 1 if composition[-1] == 1 else -1


def resolutions(composition: tuple) -> int:
    return 2 ** (pattern_depth(composition) - 1)


@lru_cache(maxsize=None)
def _pool(depth: int, weight: int, leading_two: bool) -> tuple:
    """All compositions of `weight` with pattern depth `depth`, in a fixed order."""
    out = []
    for cuts in itertools.product((False, True), repeat=weight - 1):
        comp, run = [], 1
        for cut in cuts:
            if cut:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        comp = tuple(comp)
        if pattern_depth(comp) != depth:
            continue
        if leading_two and comp[0] < 2:
            continue
        # verify_classical false-fails at K = 10**6, tol = 1e-4 on weak sums
        # that open with 2,1,1,1: their partial sums converge like
        # log(K)**3 / K and the heuristic tail estimate falls short of that.
        # Such inputs would fail at the baseline, so they are left out and
        # the gap is listed with the benchmark's record.
        if leading_two and comp[:4] == (2, 1, 1, 1):
            continue
        out.append(comp)
    return tuple(out)


def small_height_qs(count: int) -> list[Fraction]:
    """The first `count` rationals in (0, 1) ordered by denominator, then numerator."""
    out: list[Fraction] = []
    den = 2
    while len(out) < count:
        out.extend(Fraction(num, den) for num in range(1, den) if math.gcd(num, den) == 1)
        den += 1
    return out[:count]


class Case(NamedTuple):
    """One call of a public ``verify_*`` entry point."""

    entry: str
    composition: tuple
    kwargs: dict


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str
    strata: tuple  # (pattern depth, weight) pairs, cycled through case by case; may repeat
    case_s: float  # seconds per case at the seed commit and nominal host speed; sizes a batch
    leading_two: bool
    reference: str  # the kind of reference slice (reference.py) its timings are scaled by
    slices: int  # reference slices run between two cases; their median is one reading
    kwargs: Callable[[int, int], dict]  # (case index, batch size) -> call arguments

    def batch_size(self, seconds: float) -> int:
        per_round = len(self.strata)
        rounds = max(1, math.ceil(seconds / (self.case_s * per_round)))
        return rounds * per_round

    def cases(self, seed: int, seconds: float) -> list[Case]:
        """The batch for one run: same seed and seconds give the same cases.

        Each stratum deals its pool in seeded shuffles, a fresh shuffle when
        one runs out, so a batch covers every pool as evenly as its size
        allows and two seeds differ only in which compositions come first.
        """
        rng = random.Random(f"{self.name}:{seed}")
        count = self.batch_size(seconds)
        decks: dict = {stratum: [] for stratum in self.strata}
        out = []
        for i in range(count):
            depth, weight = stratum = self.strata[i % len(self.strata)]
            if not decks[stratum]:
                pool = _pool(depth, weight, self.leading_two)
                decks[stratum] = rng.sample(pool, k=len(pool))
            out.append(Case(self.entry, decks[stratum].pop(), self.kwargs(i, count)))
        return out


HALF = Fraction(1, 2)
EPS = Fraction(1, 10**25)
N_LONG = 40
N_WIDE = 6
K_CLASSICAL = 10**6
TOL_CLASSICAL = 1e-4

WORKLOADS = {
    w.name: w
    for w in (
        # Prefactor-bound exact checks: shallow patterns at n_max = 40, every
        # case at its own q so that no two cases could share q tables.
        Workload(
            "finite-long", "verify_mhs", ((3, 5), (4, 6), (5, 7)), 0.667, False, "large-fractions", 3,
            lambda i, count: {"n_max": N_LONG, "q_values": (small_height_qs(count)[i],)},
        ),
        # Expansion-bound exact checks: 512 to 2048 resolutions at n_max = 6,
        # all at q = 1/2, so reuse across calls would show here.  Weights one
        # above the depth keep the pools small (10, 11 and 12 compositions),
        # so a batch holds every one of them.  Depths 10 and 12 come twice a
        # round, so that the median lands inside depth 11's cases and the
        # tail inside depth 12's, not on the edge between two depths.
        Workload(
            "finite-wide", "verify_mhs", ((10, 11), (12, 13), (11, 12), (10, 11), (12, 13)), 0.44, False,
            "small-fractions", 3,
            lambda i, count: {"n_max": N_WIDE, "q_values": (HALF,)},
        ),
        # Certified series: weight-12 zeta-admissible compositions, where the
        # long weak-sum DP inside q_zeta dominates.
        Workload(
            "qseries", "verify_qmzsv", ((2, 12), (3, 12), (4, 12)), 0.154, True, "large-fractions", 1,
            lambda i, count: {"q": HALF, "eps": EPS},
        ),
        # Float q -> 1 limit: the only numpy layer, no exact arithmetic.
        Workload(
            "classical", "verify_classical", ((2, 7), (3, 7), (4, 7)), 0.283, True, "arrays", 1,
            lambda i, count: {"K": K_CLASSICAL, "tol": TOL_CLASSICAL},
        ),
    )
}


def _comp_label(composition: tuple) -> str:
    return ",".join(str(e) for e in composition)


def expected_finite_report(case: Case) -> dict:
    """Every field of a passing ``verify_mhs`` report except ``elapsed_ms``."""
    comp = case.composition
    n_max = case.kwargs["n_max"]
    qs = case.kwargs["q_values"]
    return {
        "case": f"weak-sum {_comp_label(comp)}",
        "family": "composition",
        "params": {
            "composition": list(comp),
            "delta": global_sign(comp),
            "terms": resolutions(comp),
            "checks": len(qs) * (n_max + 1),
        },
        "q": ",".join(str(q) for q in qs),
        "n_range": [0, n_max],
        "status": "exact-pass",
        "residuals": [],
        "discrepancy": "0",
        "tail_bound": None,
        "seed": None,
    }


def report_digest(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def check_report(case: Case, report: dict) -> Optional[str]:
    """None when the report is a correct verdict for the case, else the reason."""
    params = report.get("params", {})
    terms = resolutions(case.composition)
    if report.get("status") not in ("exact-pass", "numeric-pass"):
        return f"status {report.get('status')!r}"
    if case.entry == "verify_mhs":
        expected = expected_finite_report(case)
        if params.get("checks") != expected["params"]["checks"]:
            return f"checks {params.get('checks')} != {expected['params']['checks']}"
        if params.get("terms") != terms:
            return f"terms {params.get('terms')} != {terms}"
        if report_digest(report) != report_digest(expected):
            return "report digest differs from the derived report"
    elif case.entry == "verify_qmzsv":
        if params.get("series") != 1 + terms:
            return f"series {params.get('series')} != {1 + terms}"
        if Fraction(report["discrepancy"]) > case.kwargs["eps"]:
            return f"discrepancy {report['discrepancy']} > eps"
    elif case.entry == "verify_classical":
        if params.get("terms") != terms:
            return f"terms {params.get('terms')} != {terms}"
        if params.get("K") != case.kwargs["K"]:
            return f"K {params.get('K')} != {case.kwargs['K']}"
    else:
        return f"unknown entry {case.entry}"
    return None


def shape(cases: list[Case]) -> dict:
    """What the batch is made of, recorded next to its metrics."""
    depths = [pattern_depth(c.composition) for c in cases]
    qs = [q for c in cases for q in c.kwargs.get("q_values", (c.kwargs.get("q"),)) if q is not None]
    shared = sum(1 for q in qs if qs.count(q) > 1)
    first = cases[0].kwargs
    return {
        "entry": cases[0].entry,
        "cases": len(cases),
        "pattern_depth": [min(depths), max(depths)],
        "weights": sorted({sum(c.composition) for c in cases}),
        "resolutions": sum(2 ** (m - 1) for m in depths),
        "n_max": first.get("n_max"),
        "q": sorted({str(q) for q in qs}, key=Fraction),
        "shared_q_share": shared / len(cases) if qs else 0.0,
        "eps": str(first["eps"]) if "eps" in first else None,
        "K": first.get("K"),
        "tol": first.get("tol"),
    }
