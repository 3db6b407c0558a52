#!/usr/bin/env python3
"""Run the full verification battery and print one line per check.

Exit status is 0 only if every check passes.  --quick trims the ranges to
a few seconds of work; the default matches the shipped guarantees.
"""

import argparse
import sys
from fractions import Fraction

from qzeta import (
    CLOSED_FAMILIES,
    DEFAULT_SEED,
    all_passed,
    classical_battery,
    family_equivalence,
    lemma_suite,
    qmzsv_battery,
    sample_compositions,
    verify_mhs,
)


def emit(report) -> None:
    mark = "ok " if report.passed else "FAIL"
    print(f"[{mark}] {report.status:12s} {report.case}  ({report.elapsed_ms:.0f} ms)")
    if not report.passed:
        for line in report.residuals:
            print(f"       {line}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="small ranges, a few seconds")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument(
        "--skip-classical",
        action="store_true",
        help="skip the float q -> 1 battery (a few seconds; each distinct series summed once)",
    )
    args = ap.parse_args()

    reports = []

    n_max = 12 if args.quick else 40
    reports.extend(lemma_suite(n_max=n_max, seed=args.seed))
    for r in reports:
        emit(r)

    weight = 8 if args.quick else 12
    for family in sorted(CLOSED_FAMILIES):
        r = family_equivalence(family, max_weight=weight)
        reports.append(r)
        emit(r)

    count = 20 if args.quick else 200
    fuzz_n = 10 if args.quick else 20
    fuzz_weight = 9 if args.quick else 12
    sweep = []
    for comp in sample_compositions(count, max_weight=fuzz_weight, seed=args.seed):
        r = verify_mhs(comp, n_max=fuzz_n)
        sweep.append(r)
        if not r.passed:
            emit(r)
    reports.extend(sweep)
    print(f"[ok ] exact-pass    fuzz sweep: {count} seeded compositions at n <= {fuzz_n}"
          if all_passed(sweep) else "[FAIL] fuzz sweep")

    eps = Fraction(1, 10**15) if args.quick else Fraction(1, 10**25)
    for r in qmzsv_battery(q=Fraction(1, 2), eps=eps, small=args.quick):
        reports.append(r)
        emit(r)

    if not args.skip_classical:
        if args.quick:
            from qzeta import verify_classical

            batch = [verify_classical((2, 2), K=10**5, tol=1e-5, case="double-two limit")]
        else:
            batch = classical_battery()
        for r in batch:
            reports.append(r)
            emit(r)

    ok = all_passed(reports)
    print(f"\n{len(reports)} checks, {'all passed' if ok else 'FAILURES PRESENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
