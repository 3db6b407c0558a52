"""Steadiness check of the benchmark against the bounds in BENCHMARK.json.

    python3 qzbench/steadiness.py --seeds 10 [--workloads finite-long,qseries] [--out FILE] [--against FILE]

For each workload, runs run.py once per seed (1..N) with tracing off and
gives, per end-to-end metric, the median and the spread: the distance
between the first and third quartile as a share of the median.  A spread
above a third of the metric's bound is flagged (setup_s is reported, not
gated).  Then it runs the first seed traced twice and asserts that the layer
counts (``*.calls``, ``*.triples``, ``*.terms``, ``qarith.contexts``) repeat
exactly.  ``--against FILE`` also compares each median with the one in an
earlier ``--out`` file and flags a metric that got worse by more than its
bound.  Exits 1 when a spread, a count or a comparison check fails.
``--out`` writes the medians, spreads, batch shapes and traced counts as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def is_count(name: str) -> bool:
    return name.endswith((".calls", ".triples", ".terms")) or name == "qarith.contexts"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out")
    parser.add_argument("--against")
    args = parser.parse_args()
    before = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    ok = True
    summary: dict = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [bench(workload, seed, args.seconds, 0) for seed in range(1, args.seeds + 1)]
        if not all(result["correct"] for _, result in runs):
            print(f"{workload}: a run reported failed cases")
            ok = False
        entry: dict = {"shape": runs[0][0]["shape"], "machine": runs[0][0]["machine"],
                       "case_ms_tail": runs[0][0]["case_ms_tail"], "metrics": {}}
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [result["metrics"][name]["value"] for _, result in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            steady = spread <= bound / 3
            if not steady and name != "setup_s":
                ok = False
            print(f"{workload:12s} {name:13s} median {median:12.4f} {metric['unit']:5s} "
                  f"spread {spread:7.4f} bound {bound:5.3f} {'steady' if steady else 'WIDE'}")
            entry["metrics"][name] = {"median": median, "unit": metric["unit"],
                                      "spread": spread, "bound": bound, "values": values}
            if workload in before:
                old = before[workload]["metrics"][name]["median"]
                worse = (median - old) / old
                if metric["better"] == "higher":
                    worse = -worse
                within = worse <= bound
                ok &= within
                print(f"{workload:12s} {name:13s} median {old:12.4f} before, worse by "
                      f"{worse:+.4f} {'within bound' if within else 'BEYOND BOUND'}")
        traced = [bench(workload, 1, args.seconds, 1)[1]["metrics"] for _ in range(2)]
        counts = {k: v["value"] for k, v in traced[0].items() if is_count(k)}
        repeat = counts == {k: v["value"] for k, v in traced[1].items() if is_count(k)}
        ok &= repeat
        print(f"{workload:12s} layer counts {'repeat exactly' if repeat else 'DIFFER'} "
              f"across two traced runs of seed 1")
        entry["traced_seed_1"] = {k: v["value"] for k, v in traced[0].items()}
        summary["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
