"""Command line for expanding, evaluating and verifying the identities.

Subcommands
-----------
expand   compile a composition into its sign, pattern and expansion terms
eval     evaluate one sum (finite, q-series or classical limit)
verify   run an identity check for a composition, family, or fuzz corpus
lemmas   run the supporting kernel-identity suite

Exit codes: 0 all checks passed, 1 a verification failed, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Sequence

from .evaluators import classical_zeta, frakz_enclosure, mhs, q_zeta_enclosure
from .expansion import Triple, check_expand_depth, expand
from .indices import SignedIndex, Theta, parse_shift
from .qarith import QContext, as_eps, as_q
from .rules import (
    CLOSED_FAMILIES,
    classical_terms,
    compose,
    parse_composition,
    parse_repeated,
    pattern_depth,
    zeta_composition,
)
from .verify import (
    DEFAULT_SEED,
    _q_list,
    all_passed,
    lemma_suite,
    run_family,
    sample_compositions,
    verify_classical,
    verify_mhs,
    verify_qmzsv,
)


def parse_signed_string(text: str) -> tuple[SignedIndex, ...]:
    """Comma list of signed entries; "-k" is barred, "3^2" repeats.

    Raises ValueError for more than MAX_PARSED_ENTRIES entries in all.
    """
    return parse_repeated(text, SignedIndex.parse, "string")


def parse_triple(text: str) -> Triple:
    """Triple syntax "s;t;r", e.g. "-4,1;2,0;1,theta"."""
    parts = text.split(";")
    if len(parts) != 3:
        raise ValueError(f"triple {text!r} must have three ';'-separated parts")
    s = parse_signed_string(parts[0])
    t = tuple(int(x) for x in parts[1].split(","))
    r = tuple(parse_shift(x) for x in parts[2].split(","))
    return Triple(s, t, r)


def _parse_eps(text: str) -> Fraction:
    """The --eps option, read once by argparse, so a bad value exits 2."""
    try:
        return as_eps(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _sindex_json(e: SignedIndex):
    if e.magnitude == 0 and e.sign < 0:
        return "-0"
    return e.sign * e.magnitude


def _shift_json(r):
    return "theta" if isinstance(r, Theta) else r


def _triple_json(triple: Triple) -> dict:
    return {
        "s": [_sindex_json(e) for e in triple.s],
        "t": list(triple.t),
        "r": [_shift_json(r) for r in triple.r],
    }


def _rational_latex(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    sign = "-" if value < 0 else ""
    return f"{sign}\\frac{{{abs(value.numerator)}}}{{{value.denominator}}}"


def _classical_term_plain(sign: int, coefficient: int, index) -> str:
    inner = ",".join(str(e) for e in index)
    return f"{'+' if sign > 0 else '-'}{coefficient}*z({inner})"


def _classical_term_latex(sign: int, coefficient: int, index) -> str:
    inner = ",".join(e.latex() for e in index)
    return f"{'+' if sign > 0 else '-'}{coefficient}\\zeta({inner})"


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def cmd_expand(args: argparse.Namespace) -> int:
    comp = parse_composition(args.composition)
    check_expand_depth(pattern_depth(comp))  # expand's refusal, before the pattern is built
    if args.classical:
        zeta_composition(comp)  # the limit's refusal, before any triple is built
    d, pattern = compose(comp)
    triples = expand(pattern)
    classical = classical_terms(d, triples) if args.classical else None
    if args.format == "json":
        payload = {
            "composition": list(comp),
            "delta": d,
            "pattern": _triple_json(pattern),
            "terms": [_triple_json(T) for T in triples],
        }
        if classical is not None:
            payload["classical"] = [
                {
                    "sign": t.sign,
                    "coefficient": t.coefficient,
                    "index": [_sindex_json(e) for e in t.index],
                }
                for t in classical
            ]
        _print_json(payload)
    elif args.format == "latex":
        print(pattern.latex())
        for T in triples:
            print(T.latex())
        if classical is not None:
            print("".join(_classical_term_latex(*t) for t in classical))
    else:
        print(f"composition: {','.join(str(e) for e in comp)}")
        print(f"delta: {'+1' if d > 0 else '-1'}")
        print(f"pattern: {pattern}")
        print("terms:")
        for T in triples:
            print(f"  {T}")
        if classical is not None:
            print("classical:")
            for t in classical:
                print(f"  {_classical_term_plain(*t)}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    kind = args.kind
    payload: dict = {"kind": kind, "s": args.s}
    if kind in ("mhs", "mhs-star"):
        if args.n is None:
            raise ValueError(f"eval {kind} requires --n")
        ctx = QContext(args.q)
        value = mhs(ctx, parse_signed_string(args.s), args.n, star=kind.endswith("star"))
        payload.update({"n": args.n, "q": str(ctx.q), "value": str(value)})
        lines = [str(value)]
        latex_value = _rational_latex(value)
    elif kind in ("qzeta", "qzeta-star", "frakz"):
        q = as_q(args.q)  # before the string, so a bad --q is the first refusal
        if kind == "frakz":
            sv = frakz_enclosure(q, parse_triple(args.s), eps=args.eps, merge=False)
        else:
            s = parse_signed_string(args.s)
            sv = q_zeta_enclosure(q, s, eps=args.eps, star=kind.endswith("star"))
        # |series - mid| <= |series - partial sum| + |partial sum - mid|, the
        # search's bound rounded up onto the ball's grid, whose denominator
        # stays 2**prec where the bound's grows like b**K
        ball, grid = sv.value, 1 << sv.value.prec
        value = Fraction(ball.mid, grid)
        tail_bound = Fraction(math.ceil(sv.tail_bound * grid) + ball.rad, grid)
        payload.update(
            q=str(q), eps=str(args.eps), value=str(value), tail_bound=str(tail_bound), terms=sv.terms
        )
        lines = [str(value), f"tail_bound: {tail_bound}", f"terms: {sv.terms}"]
        latex_value = _rational_latex(value)
    else:  # zeta or zeta-star, the last kind argparse's choices admit
        cv = classical_zeta(
            parse_signed_string(args.s), K=args.terms, star=kind.endswith("star")
        )
        payload.update(
            {"K": args.terms, "value": cv.value, "tail_est": cv.tail_est}
        )
        lines = [repr(cv.value), f"tail_est: {cv.tail_est}", f"terms: {cv.terms}"]
        latex_value = repr(cv.value)
    if args.format == "json":
        _print_json(payload)
    elif args.format == "latex":
        print(latex_value)
    else:
        for line in lines:
            print(line)
    return 0


def _emit_reports(reports, fmt: str) -> None:
    if fmt == "json":
        if len(reports) == 1:
            print(reports[0].to_json())
        else:
            _print_json([r.to_dict() for r in reports])
        return
    for r in reports:
        extras = []
        if r.params.get("checks") is not None:
            extras.append(f"checks={r.params['checks']}")
        if r.discrepancy not in (None, "0"):
            extras.append(f"discrepancy={r.discrepancy}")
        if r.tail_bound is not None:
            extras.append(f"tail_bound={r.tail_bound}")
        detail = f" ({', '.join(extras)})" if extras else ""
        print(f"{r.status}  {r.case}{detail}  [{r.elapsed_ms}ms]")
        if not r.passed:
            for res in r.residuals:
                print(f"    {res}")


def cmd_verify(args: argparse.Namespace) -> int:
    # read here, so a bad --q fails also where the target uses no q
    qs = _q_list(args.q.split(","))
    target = args.target
    series = "--qmzsv" if args.qmzsv else "--classical" if args.classical else None
    if series and (target in CLOSED_FAMILIES or target == "random"):
        raise ValueError(f"{series} checks one composition, not the target {target!r}")
    if target in CLOSED_FAMILIES:
        reports = run_family(
            target, max_weight=args.max_weight, n_max=args.n_max, q_values=qs
        )
    elif target == "random":
        if args.count < 1:
            raise ValueError(
                f"--count {args.count} leaves random with no compositions (needs >= 1)"
            )
        comps = sample_compositions(
            args.count, max_weight=args.max_weight, seed=args.seed
        )
        reports = [verify_mhs(c, n_max=args.n_max, q_values=qs) for c in comps]
    else:
        comp = parse_composition(target)
        if args.qmzsv:
            reports = [verify_qmzsv(comp, q=q, eps=args.eps) for q in qs]
        elif args.classical:
            reports = [verify_classical(comp, K=args.terms, tol=args.tol)]
        else:
            reports = [verify_mhs(comp, n_max=args.n_max, q_values=qs)]
    _emit_reports(reports, args.format)
    return 0 if all_passed(reports) else 1


def cmd_lemmas(args: argparse.Namespace) -> int:
    reports = lemma_suite(
        n_max=args.n_max,
        q_values=args.q.split(","),
        seed=args.seed,
        samples=args.samples,
    )
    _emit_reports(reports, args.format)
    return 0 if all_passed(reports) else 1


def _add_format(parser: argparse.ArgumentParser, choices=("plain", "json")) -> None:
    parser.add_argument(
        "--format",
        choices=choices,
        default="plain",
        help="output format (default plain)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qzeta",
        description="q-analog harmonic-sum identities: expand, evaluate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="compile a composition")
    p_expand.add_argument("composition", help="e.g. 2,1 or 2^3,1,4")
    p_expand.add_argument(
        "--classical", action="store_true", help="include the q -> 1 expansion"
    )
    _add_format(p_expand, ("plain", "json", "latex"))
    p_expand.set_defaults(func=cmd_expand)

    p_eval = sub.add_parser("eval", help="evaluate one sum")
    p_eval.add_argument(
        "kind",
        choices=("mhs", "mhs-star", "qzeta", "qzeta-star", "frakz", "zeta", "zeta-star"),
    )
    p_eval.add_argument(
        "--s",
        required=True,
        help="signed string (frakz: 's;t;r' triple, theta allowed in r);"
        " leading-bar values need the --s='-4,...' form",
    )
    p_eval.add_argument("--n", type=int, default=None, help="upper limit for mhs kinds")
    p_eval.add_argument("--q", default="1/2", help="rational q in (0,1), e.g. 1/2")
    p_eval.add_argument(
        "--eps", type=_parse_eps, default="1e-25", help="tail bound target for q-series"
    )
    p_eval.add_argument(
        "--terms", type=int, default=10**6, help="truncation for zeta kinds"
    )
    _add_format(p_eval, ("plain", "json", "latex"))
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="verify an identity")
    p_verify.add_argument(
        "target",
        help="composition (2,1,3), a family name (2c2, 2c21, ...), or 'random'",
    )
    p_verify.add_argument("--n-max", type=int, default=10, dest="n_max")
    p_verify.add_argument("--q", default="1/2", help="comma-separated rational q list")
    series = p_verify.add_mutually_exclusive_group()
    series.add_argument(
        "--qmzsv", action="store_true", help="check the infinite q-series identity at each q"
    )
    series.add_argument(
        "--classical", action="store_true", help="check the q -> 1 limit identity"
    )
    p_verify.add_argument("--eps", type=_parse_eps, default="1e-25")
    p_verify.add_argument("--terms", type=int, default=10**6, help="classical truncation")
    p_verify.add_argument("--tol", type=float, default=1e-4)
    p_verify.add_argument("--count", type=int, default=20, help="size of fuzz corpus")
    p_verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_verify.add_argument("--max-weight", type=int, default=10, dest="max_weight")
    _add_format(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_lemmas = sub.add_parser("lemmas", help="run the kernel-identity suite")
    p_lemmas.add_argument("--n-max", type=int, default=40, dest="n_max")
    p_lemmas.add_argument(
        "--q",
        default="1/2,1/3,9/10",
        help="comma-separated rational q list; inverse-power and head-reduction"
        " run at the first q only",
    )
    p_lemmas.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_lemmas.add_argument("--samples", type=int, default=10)
    _add_format(p_lemmas)
    p_lemmas.set_defaults(func=cmd_lemmas)

    return parser


# Longest integer main will print: the exact values of ``eval mhs`` and
# ``mhs-star`` have far more digits than Python's default cap (a series
# value is a ball's midpoint, a few hundred digits).  A longer one exits 2
# through the ValueError that str() raises.
MAX_STR_DIGITS = 2_000_000


def main(argv: Sequence[str] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the process-wide digit limit is raised only while main runs
    limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    try:
        if limit is not None:
            sys.set_int_max_str_digits(MAX_STR_DIGITS)
        return args.func(args)
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
