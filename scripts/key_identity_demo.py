#!/usr/bin/env python3
"""Walk through the depth-four identity ({2}^a,1,{2}^b,1,{2}^c,3,{2}^d,1).

Prints the compiled pattern, its eight-term expansion, the classical limit
expansion, and a numeric confirmation of both the q-series identity and the
q -> 1 limit.  Exit status is 0 only if both checks pass, 1 if one fails,
and 2, with ``error: <message>`` on stderr as ``qzeta`` gives it, for an
input the library refuses: a q or eps it cannot read, ``--terms`` below 1,
or a series deeper than the depth cap, which the classical check refuses
after the q-series check has run.
"""

import argparse
import sys

from qzeta import (
    classical_expand,
    compose,
    expand,
    verify_classical,
    verify_qmzsv,
)
from qzeta.qarith import as_eps, as_q


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-a", type=int, default=1)
    ap.add_argument("-b", type=int, default=0)
    ap.add_argument("-c", type=int, default=0)
    ap.add_argument("-d", type=int, default=0)
    ap.add_argument("--q", default="1/2")
    ap.add_argument("--eps", default="1e-20")
    ap.add_argument("--terms", type=int, default=10**6, help="classical truncation")
    args = ap.parse_args()
    if min(args.a, args.b, args.c, args.d) < 0:
        ap.error("parameters must be nonnegative")
    try:
        return demo(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def demo(args: argparse.Namespace) -> int:
    """Print the walk-through for the parsed arguments; 0 if both checks
    pass, else 1.  Raises ValueError for an input the library refuses."""
    q, eps = as_q(args.q), as_eps(args.eps)
    comp = (
        (2,) * args.a + (1,) + (2,) * args.b + (1,)
        + (2,) * args.c + (3,) + (2,) * args.d + (1,)
    )
    print(f"composition: {','.join(map(str, comp))}")

    d, pattern = compose(comp)
    print(f"sign {d:+d}, pattern {pattern}")
    print("\nexpansion:")
    for tri in expand(pattern):
        print(f"  {tri}")

    print("\nclassical limit:")
    line = ""
    for term in classical_expand(comp):
        sgn = "+" if term.sign > 0 else "-"
        body = ",".join(str(e) for e in term.index)
        line += f" {sgn}{term.coefficient}*z({body})"
    print(" " + line.strip())

    print("\nq-series check:")
    series = verify_qmzsv(comp, q=q, eps=eps)
    print(
        f"  {series.status}: |lhs - rhs| = {series.discrepancy}, eps = {series.params['eps']}"
        f" (tail bound {series.tail_bound})"
    )

    print("classical check:")
    limit = verify_classical(comp, K=args.terms, tol=1e-3)
    print(
        f"  {limit.status}: |lhs - rhs| = {limit.discrepancy}"
        f" (allowance {limit.params['allowance']})"
    )
    return 0 if series.passed and limit.passed else 1


if __name__ == "__main__":
    sys.exit(main())
