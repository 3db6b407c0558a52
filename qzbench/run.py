"""Benchmark of the qzeta verifier: time to verdict on four seeded workloads.

    python3 qzbench/run.py --workload finite-long --seed 1 --seconds 16 --trace 0
    python3 qzbench/run.py --workload all --seed 1 --seconds 16 --trace 0

Each workload runs in its own fresh interpreter (worker.py) as a closed loop
with one client: one process calls a public ``verify_*`` entry point case
after case, with no threads or pools, and with QZETA_THREADS unset so that
the default configuration is measured.  Every report is checked against
values derived from the inputs (workloads.py); a case that raises or fails
its check counts as failed.

The batch of one run is fixed by the seed and by --seconds, which sizes it
to about that many seconds at the seed commit and the nominal host speed
of reference.py, so every run of a seed does the
same work.  ``setup_s`` is the median over several fresh interpreters, half
started before the measured one and half after it, of the time from starting
one to having qzeta imported and the inputs generated.

Every time is reported at the nominal host speed of reference.py: a case's
time is divided by the host's slowdown measured by the two reference slices
of the workload's kind run just before and after it, outside its time, and
a set-up time by that of slices run right after it.  The record line carries
the raw times and the slowdowns next to them.

With --trace 0 the last line of output carries the end-to-end metrics; with
--trace 1 the batch runs traced (layers.py) and it carries per-layer ones.
The line before it records the batch shape and the machine.  The exit code
is 0 whenever a result is printed; ``correct`` says whether every case
passed.  A checkout without ``src/qzeta`` exits with code 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_PROBES = 4
TAIL_BEYOND = 10
TIMEOUT_S = 170


def worker(*args: str) -> tuple[float, dict]:
    """Run worker.py once; the monotonic clock at its start and its JSON line."""
    env = dict(os.environ)
    env.pop("QZETA_THREADS", None)
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        stdout=subprocess.PIPE,
        env=env,
        text=True,
        timeout=TIMEOUT_S,
        check=True,
    )
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def tail(ms: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND cases above it, and that percentile."""
    ordered = sorted(ms)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def tally(records: list[dict]) -> tuple[int, list[str]]:
    """Cases attempted, and the reason for each one that did not pass."""
    return len(records), [r["problem"] for r in records if r["problem"] is not None]


def run(workload: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """One benchmark run; the record line and the result line."""
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    probe_count = 0 if traced else SETUP_PROBES // 2
    probes = [worker(*common, "--setup-only") for _ in range(probe_count)]
    started, out = worker(*common, *(["--trace"] if traced else []))
    probes += [worker(*common, "--setup-only") for _ in range(probe_count)]
    records = out["records"]
    attempted, failures = tally(records)
    raw_ms = [r["ms"] for r in records]
    info = {
        "workload": workload,
        "seed": seed,
        "shape": out["shape"],
        "machine": out["machine"],
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:5],
    }
    if traced:
        metrics = out["layers"]
    else:
        slow = [r["slowdown"] for r in records]
        ms = [m / s for m, s in zip(raw_ms, slow)]
        tail_ms, tail_pct = tail(ms)
        raw_setups = [out["ready"] - started] + [p["ready"] - p_started for p_started, p in probes]
        setup_slow = [out["setup_slowdown"]] + [p["setup_slowdown"] for _, p in probes]
        setups = [t / s for t, s in zip(raw_setups, setup_slow)]
        info["case_ms_tail"] = {"percentile": tail_pct, "cases": attempted}
        info["host_slowdown"] = {
            "reference": WORKLOADS[workload].reference,
            "median": statistics.median(slow),
            "min": min(slow),
            "max": max(slow),
        }
        info["raw"] = {
            "setup_s": statistics.median(raw_setups),
            "wall_s": sum(raw_ms) / 1000.0,
            "case_ms_p50": statistics.median(raw_ms),
            "case_ms_tail": tail(raw_ms)[0],
        }
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (sum(ms) / 1000.0, "s"),
            "case_ms_p50": (statistics.median(ms), "ms"),
            "case_ms_tail": (tail_ms, "ms"),
            "pass_ratio": ((attempted - len(failures)) / attempted, "ratio"),
            "peak_rss_mb": (out["rss_kb"] / 1024.0, "MB"),
        }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    return info, result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qzeta" / "__init__.py").is_file():
        print(f"qzbench: no qzeta source tree at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            info, result = run(name, args.seed, args.seconds, bool(args.trace))
        except (subprocess.SubprocessError, ValueError, KeyError) as exc:
            print(f"qzbench: workload {name} did not complete: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info, sort_keys=True))
        if len(names) == 1:
            combined = result
            break
        print(json.dumps(result, sort_keys=True))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
