"""One benchmark workload, run in a fresh interpreter started by run.py.

    python3 qzbench/worker.py --workload NAME --seed N --seconds S [--trace] [--setup-only]

Imports qzeta from this checkout's ``src``, generates the batch, and prints
one JSON line: the monotonic clock when set-up ended and, unless
``--setup-only``, the per-case times and check results, the batch wall time,
peak RSS, the batch shape and the machine block.  Untraced, the line also
carries the host's slowdown measured by a few reference slices of the
workload's kind (reference.py) right after set-up, and every case record
the slowdown measured by the slices just before and after it.  With
``--trace`` the batch runs under :class:`layers.Tracer`, without slices,
and the line carries per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import reference
from workloads import WORKLOADS, check_report, shape

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_SLICES = 9


def import_qzeta():
    """qzeta from this checkout's source tree, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import qzeta

    if Path(qzeta.__file__).resolve().parent != SRC / "qzeta":
        raise ImportError(f"qzeta was imported from {qzeta.__file__}, not from {SRC}")
    return qzeta


def run_cases(cases, verify, slowdown=None) -> list[dict]:
    """Call each case's entry point back to back; check every report.

    With ``slowdown`` (one reading of reference slices, see reference.py),
    a reading runs between the cases, outside their times, after one of
    warm-up, and each record carries ``slowdown``: the mean of the host
    slowdowns that the readings just before and after its case measured.
    """
    records = []
    if slowdown is not None:
        slowdown()
        before = slowdown()
    for case in cases:
        fn = getattr(verify, case.entry)
        t0 = time.perf_counter()
        try:
            report = fn(case.composition, **case.kwargs)
        except Exception as exc:  # a verify call that raises is a failed case
            ms = (time.perf_counter() - t0) * 1000.0
            problem = f"raised {exc!r}"
        else:
            ms = (time.perf_counter() - t0) * 1000.0
            problem = check_report(case, report.to_dict())
        record = {"ms": ms, "problem": problem}
        if slowdown is not None:
            after = slowdown()
            record["slowdown"] = (before + after) / 2.0
            before = after
        records.append(record)
    return records


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "QZETA_THREADS": os.environ.get("QZETA_THREADS"),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    qzeta = import_qzeta()
    workload = WORKLOADS[args.workload]
    cases = workload.cases(args.seed, args.seconds)
    out: dict = {"ready": time.monotonic()}
    if not args.trace:
        out["setup_slowdown"] = reference.slowdown(workload.reference, SETUP_SLICES)
    if not args.setup_only:
        tracer = None
        if args.trace:
            from layers import Tracer, calibrate

            span_s, counter_s = calibrate((qzeta.idx(3), 1, 2, 7))
            tracer = Tracer()
            tracer.install(qzeta)
        t0 = time.perf_counter()
        slowdown = None if tracer else functools.partial(
            reference.slowdown, workload.reference, workload.slices
        )
        records = run_cases(cases, qzeta.verify, slowdown)
        wall_s = time.perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
            overhead_s = tracer.span_count() * span_s + tracer.counter_count() * counter_s
            out["layers"] = tracer.metrics(wall_s, overhead_s)
        out.update(
            wall_s=wall_s,
            records=records,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            shape=shape(cases),
            machine=machine(),
        )
    print(json.dumps(out))


if __name__ == "__main__":
    main()
