#!/usr/bin/env python3
"""Paired before/after benchmark: a base revision against the working tree.

    python3 scripts/bench_pairs.py --base HEAD~1 --pairs 10 --out BENCH.json
    python3 scripts/bench_pairs.py --base main --workload finite-long --pairs 5

Two trees are built under a fresh directory in the system's temporary one
(``TMPDIR``), both from local git with ``git archive`` (no network): the
base revision's tree, and the working tree as ``git add -A`` would stage
it (every tracked or untracked file that git does not ignore, so
uncommitted edits count and no build output does), written as a git tree
through a copy of the index, so the real index is left as it was.  Both
git tree ids are recorded: once the change is committed, its tree id is
the commit's (``git log --format='%H %T'``), which ties the numbers to
the code that produced them.  Next to each tree id is its ``code_lines``,
the lines of ``src/qzeta/*.py`` that hold a token that is neither a
comment nor a docstring (:func:`code_lines`), and ``code_lines_by_module``,
the same count for each of those files (:func:`module_lines`), so a size
claim, and the module it falls in, can be read off the record; both
sides' ``code_lines`` are printed, with every module whose count
changed.  The change side's ``head`` and ``dirty``
(its tree differs from the head's) are taken when its tree is written, so
an edit made while the runs go on does not relabel them.  Each pair runs
``qzbench/run.py`` unchanged in both trees, one workload at a time, on the
same seed, with ``PYTHONDONTWRITEBYTECODE=1`` and no ``PYTHONPATH``; the
side that runs first alternates from pair to pair, so a drift of the
host's speed falls on both sides alike.  Pair i uses seed ``--seed + i``.

Each run also records ``child_cpu_s``: the user and system CPU time of
its ``qzbench/run.py`` and of every process it waited for (the workers
and the reference slices), the rise of this script's ``RUSAGE_CHILDREN``
over the run.  Other tenants of a shared host move it less than wall
time.  It is summarized next to qzbench's metrics, whose ``peak_rss_mb``
is the run's own peak RSS.

For every end-to-end metric it prints each side's median and quartiles,
the change's median relative to the base's, the number of pairs in which
the change is lower, and the gap between the medians in units of the
base's interquartile range.  With ``--out`` it writes the same, with every
run's value, the seeds and the machine block, as JSON.

A full run (no ``--workload``) then runs the reach probes, the fixed list
``PROBES`` of inputs that no workload times, once per side: each is one
``qzeta.cli`` command in a fresh process in that side's tree, under one
timeout, ``PROBE_TIMEOUT_S``.  It records each probe's exit code (or
``"timeout"``), the first line of its stderr, its wall time, its child CPU
time, taken as a run's is, and its peak RSS as ``child_rss_mb``, under
``"probes"`` in the JSON, and prints how many probes each side answered:
exited 0 or 1, a verdict, within the timeout.  Exit status 0 when every
run completed, 1 when one did not; a probe's outcome does not change it.

A probe's peak RSS is its own ``VmHWM``.  The probe runs as ``python -c``
with a stub that runs ``qzeta.cli`` as ``__main__``, as ``-m`` would, and
in a ``finally`` prints the ``VmHWM`` line of ``/proc/self/status`` last
on its stdout.  exec gives the probe a fresh address space, so that
figure starts from nothing, while a child's ``ru_maxrss`` starts from its
parent's peak and could not read below this script's own.  A probe
killed at the timeout prints none and records ``null``.

A full run also runs each side's tier-1 suite once, after the probes:
``python -m pytest -q --continue-on-collection-errors`` in that side's
tree with its ``src`` on ``PYTHONPATH``, under ``TIER1_TIMEOUT_S``.  Next
to each side's ``code_lines`` it records ``tier1``: the exit code (or
``"timeout"``), the wall time, and the passed, failed, skipped and error
counts read off pytest's summary line (:func:`tier1_counts`).  A tree
written by ``git archive`` is not a git checkout, so the one tier-1 test
that needs a commit skips there.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("finite-long", "finite-wide", "qseries", "classical")
SIDES = ("base", "change")
# (9,9,9), (33) and (2,1^31) at q near 1, the longest finite checks, the
# heaviest string and a classical check, a harmonic series of 200 entries
# that eval answers from its ball, two exact harmonic sums refused by their
# work estimate, a finite check at the 10**6-entry parse bound,
# refused by its left side's work estimate before its string or pattern is
# built, and its q-series check, refused by the left side's series-length
# cap before compose runs (each refusal once came after building them), six
# inputs whose pattern is far over the depth caps, each refused on the
# depth read off the composition before compose runs: expand 3^30000 and
# 3^1000000, the finite checks of 3^1000000 and 33^30000, and the q-series
# and classical checks of 3^1000000 (each refusal has its own code path,
# and the largest input shows that each keeps pace; expand and the
# classical check once spent about 5 s compiling its 1,000,001 slots
# first), a q of 5,000 digits, which no estimate sees: its discrepancy
# lies far below every ball's binary point, so the check exits 2 in well
# under a second, two q-series checks that today's caps admit, whose
# first call builds every table of its q cold (the probes above are
# refused before any table), (9,9,9) at
# the double nearest 4/5, whose cost is the right side's truncation
# search, a true identity at eps = 1/10, whose exact discrepancy is a
# compact rational that no ball can decide, so it exits 2, and (33) at
# n_max = 80, a depth-32 pattern and the deepest finite check of any
# probe: one check at a (q, n) that no other check shares, so the exact
# engines' level memo records nothing for it and should cost it nothing,
# and 100 random finite checks at n_max = 60, which share one (q, n), so
# they are the probe that keeps and records level columns; and three
# q-series checks of true identities that exit 2: (9,1,2) and (9,9,9) at
# 49/50, refused by the harmonic sum's series-length cap, so they show
# where caps sized for the balls start to answer, and (2) at q = 1/10 and
# eps = 1e-6, whose compact exact discrepancy no ball down to 2**-2400
# decides; and eval of the left series of (2,1,1,3,1) at q = 9/10, which
# verify's check of it sums as a ball, so eval must answer where verify
# does (an exact partial sum there is over the harmonic work estimate);
# and (9,9,9) at 99/100, the hardest input of the q-series check toward
# q -> 1, refused today by the harmonic sum's series-length cap, and a
# finite check at a q of 2,000 digits, admitted today though its
# integers grow with the height of q, which no work estimate sees
PROBES = (
    "verify 9,9,9 --qmzsv --q 9/10",
    "verify 9,9,9 --qmzsv --q 19/20",
    "verify 33 --qmzsv --q 4/5",
    "verify 33 --qmzsv --q 9/10",
    "verify 2,1^31 --qmzsv --q 17/20",
    "verify 2,1^31 --qmzsv --q 9/10",
    "verify 2,1,1,3,1 --qmzsv --q 19/20",
    "verify 2,1,1,3,1 --q 5/8 --n-max 120",
    "verify 2,1,1,3,1 --q 5/8 --n-max 160",
    "verify 2^1000 --n-max 20",
    "verify 2,1,1,1 --classical",
    "eval qzeta-star --s 2,1^199",
    "eval mhs-star --s 1^300 --n 300",
    "eval mhs-star --s 1^1000 --n 100",
    "verify 2^1000000",
    "verify 2^1000000 --qmzsv",
    "verify 3^1000000",
    "verify 3^1000000 --qmzsv",
    "verify 3^1000000 --classical",
    "expand 3^1000000",
    "expand 3^30000",
    "verify 33^30000",
    "verify 2,1 --qmzsv --q 1/" + "1" * 5000,
    "verify 2,1,1,3,1 --qmzsv --q 9/10",
    "verify 9,9,9 --qmzsv --q 4/5",
    "verify 9,9,9 --qmzsv --q 3602879701896397/4503599627370496",
    "verify 2,1 --qmzsv --eps 1/10",
    "verify 33 --n-max 80",
    "verify random --count 100 --n-max 60",
    "verify 9,1,2 --qmzsv --q 49/50",
    "verify 9,9,9 --qmzsv --q 49/50",
    "verify 2 --qmzsv --q 1/10 --eps 1/1000000",
    "eval qzeta-star --s 2,1,1,3,1 --q 9/10 --eps 1e-25",
    "verify 9,9,9 --qmzsv --q 99/100",
    "verify 2,1 --q 1/" + "1" * 2000 + " --n-max 10",
)
PROBE_TIMEOUT_S = 30.0
TIER1_TIMEOUT_S = 1800.0
TIER1_OUTCOMES = ("passed", "failed", "skipped", "errors")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
    ).stdout


def working_tree(scratch: Path) -> dict:
    """The change side as measured: ``tree``, the git tree id of the working
    tree as ``git add -A`` would stage it, written through a copy of the
    index in scratch; ``head``, the commit checked out then; and ``dirty``,
    whether that tree differs from the head's.  All three are taken
    together, before any run, so an edit made while the runs go on does
    not change the record."""
    head, head_tree = git("rev-parse", "HEAD", "HEAD^{tree}").split()
    index = scratch / "index"
    real = ROOT / git("rev-parse", "--git-path", "index").strip()
    if real.is_file():
        shutil.copy2(real, index)
    env = dict(os.environ, GIT_INDEX_FILE=str(index))
    for args in (["add", "-A"], ["write-tree"]):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), *args], env=env, capture_output=True, text=True, check=True
        )
    tree = proc.stdout.strip()
    return {"head": head, "dirty": tree != head_tree, "tree": tree}


def code_lines(source: str) -> int:
    """The lines of a Python source that hold a token that is neither a
    comment nor a docstring; a multi-line string counts on each line it
    spans."""
    docstrings = [
        ((doc.lineno, doc.col_offset), (doc.end_lineno, doc.end_col_offset))
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
        for doc in node.body[:1]
    ]
    skip = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in skip or tok.type == tokenize.STRING and any(
            start <= tok.start and tok.end <= end for start, end in docstrings
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def module_lines(tree: Path) -> dict[str, int]:
    """:func:`code_lines` of each ``src/qzeta/*.py`` of a tree, by file name."""
    sources = sorted((tree / "src" / "qzeta").glob("*.py"))
    return {path.name: code_lines(path.read_text()) for path in sources}


def extract(tree: str, dest: Path) -> None:
    """Write the files of a git tree-ish into dest."""
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", tree],
        capture_output=True, check=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_child(tree: Path, cmd: list[str], timeout: float | None = None, **env: str) -> tuple:
    """Run cmd in tree, with ``PYTHONDONTWRITEBYTECODE=1``, no ``PYTHONPATH``
    and the variables env sets: its exit code or "timeout", its stdout and
    stderr, its wall time and its child CPU time in seconds (see the module
    docstring).  At the timeout the child is killed and reaped."""
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env = dict(inherited, PYTHONDONTWRITEBYTECODE="1", **env)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=timeout)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        code, out, err = "timeout", exc.stdout, exc.stderr
    wall = time.monotonic() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime
    out, err = ((b or b"").decode(errors="replace") for b in (out, err))
    return code, out, err, wall, cpu


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict, float]:
    """One ``qzbench/run.py`` run in tree: its record line, its result line
    and its child CPU time in seconds."""
    cmd = [
        sys.executable, str(tree / "qzbench" / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    code, out, err, _, cpu = run_child(tree, cmd)
    if code != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {code}: {err.strip()}")
    lines = out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1]), cpu


def run_probe(tree: Path, probe: str, timeout: float = PROBE_TIMEOUT_S) -> dict:
    """One reach probe, ``qzeta.cli <probe>``, in tree with its ``src`` on
    ``PYTHONPATH``: its exit code or "timeout", the first line of its
    stderr, its wall time, its child CPU time in seconds and its own peak
    RSS in MB, or None when it printed none (see the module docstring)."""
    stub = (
        "import runpy\n"
        "try:\n"
        "    runpy.run_module('qzeta.cli', run_name='__main__', alter_sys=True)\n"
        "finally:\n"
        "    print(*(s for s in open('/proc/self/status') if s.startswith('VmHWM:')), end='')\n"
    )
    cmd = [sys.executable, "-c", stub, *probe.split()]
    code, out, err, wall, cpu = run_child(tree, cmd, timeout, PYTHONPATH=str(tree / "src"))
    _, found, hwm = out.rpartition("VmHWM:")
    rss = int(hwm.split()[0]) / 1024 if found else None  # VmHWM is in kB
    first = (err.strip().splitlines() or [""])[0]
    return {
        "exit": code, "stderr": first, "wall_s": wall, "child_cpu_s": cpu, "child_rss_mb": rss
    }


def tier1_counts(output: str) -> dict:
    """The passed, failed, skipped and error counts of pytest's summary
    line, the last line of its output that names one of them, such as
    ``1 failed, 300 passed, 1 skipped, 2 warnings in 40.12s``: an outcome
    the line does not name counts 0, and all are None when no line names
    one."""
    names = {"passed": "passed", "failed": "failed", "skipped": "skipped",
             "error": "errors", "errors": "errors"}
    for line in reversed(output.splitlines()):
        words = line.replace(",", " ").split()
        found = {
            names[word]: int(count)
            for count, word in zip(words, words[1:])
            if count.isdigit() and word in names
        }
        if found:
            return {name: found.get(name, 0) for name in TIER1_OUTCOMES}
    return dict.fromkeys(TIER1_OUTCOMES)


def run_tier1(tree: Path, timeout: float = TIER1_TIMEOUT_S) -> dict:
    """The tier-1 suite in tree: its exit code or "timeout", its wall time
    in seconds and its counts (:func:`tier1_counts`)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           "-p", "no:cacheprovider"]
    code, out, _, wall, _ = run_child(tree, cmd, timeout, PYTHONPATH=str(tree / "src"))
    return {"exit": code, "wall_s": wall, **tier1_counts(out)}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(base: list[float], change: list[float]) -> dict:
    """The paired statistics of one metric over runs base[i], change[i]."""
    b1, b2, b3 = quartiles(base)
    c1, c2, c3 = quartiles(change)
    iqr = b3 - b1
    return {
        "base": {"q1": b1, "median": b2, "q3": b3, "runs": base},
        "change": {"q1": c1, "median": c2, "q3": c3, "runs": change},
        "ratio": c2 / b2 if b2 else None,
        "lower_in": sum(c < b for b, c in zip(base, change)),
        "pairs": len(base),
        "gap_iqr": (b2 - c2) / iqr if iqr else None,
    }


def machine() -> dict:
    """The host: what qzbench records, plus processor and platform."""
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"processor": model, "platform": platform.platform(), "machine": platform.machine()}


def show(workload: str, metrics: dict) -> None:
    print(f"{workload}:")
    for name, s in metrics.items():
        ratio = "" if s["ratio"] is None else f"{100 * (s['ratio'] - 1):+6.1f} %"
        gap = "" if s["gap_iqr"] is None else f"  gap {s['gap_iqr']:+.2f} IQR"
        base, change = s["base"], s["change"]
        print(
            f"  {name:13s} {base['median']:11.4g} [{base['q1']:.4g}, {base['q3']:.4g}]"
            f" -> {change['median']:11.4g} [{change['q1']:.4g}, {change['q3']:.4g}]"
            f"  {ratio:9s} lower in {s['lower_in']} of {s['pairs']}{gap}"
        )


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all four)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=16.0,
                    help="batch size, as qzbench/run.py takes it")
    ap.add_argument("--seed", type=int, default=3001, help="seed of the first pair")
    ap.add_argument("--out", type=Path, help="write the result as JSON here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    workloads = args.workload or list(WORKLOADS)
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    try:
        trees = {"base": scratch / "base", "change": scratch / "change"}
        base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}").strip()
        change = working_tree(scratch)
        base_tree = git("rev-parse", f"{base_commit}^{{tree}}").strip()
        ids = {"base": base_tree, "change": change["tree"]}
        sizes = {}
        for side in SIDES:
            extract(ids[side], trees[side])
            sizes[side] = module_lines(trees[side])
        seeds = [args.seed + i for i in range(args.pairs)]
        runs = {w: {side: [] for side in SIDES} for w in workloads}
        qz_machine = None
        t0 = time.monotonic()
        for i, seed in enumerate(seeds):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for w in workloads:
                for side in order:
                    record, result, cpu = run_side(trees[side], w, seed, args.seconds)
                    cpu_s = {"value": cpu, "unit": "s"}
                    runs[w][side].append({**result["metrics"], "child_cpu_s": cpu_s})
                    qz_machine = record["machine"]
            print(f"pair {i + 1}/{args.pairs} (seed {seed}) done, {time.monotonic() - t0:.0f} s",
                  file=sys.stderr)
        probes = []
        for i, probe in enumerate(() if args.workload else PROBES):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            probes.append({"probe": probe, **{side: run_probe(trees[side], probe) for side in order}})
        tier1 = {} if args.workload else {side: run_tier1(trees[side]) for side in SIDES}
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench_pairs: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    out = {
        "base": {
            "rev": args.base, "commit": base_commit, "tree": ids["base"],
            "code_lines": sum(sizes["base"].values()), "code_lines_by_module": sizes["base"],
        },
        "change": {
            **change,
            "code_lines": sum(sizes["change"].values()), "code_lines_by_module": sizes["change"],
        },
        "machine": {**qz_machine, **machine()},
        "protocol": {
            "command": "qzbench/run.py --workload W --seed S --seconds T --trace 0",
            "seconds": args.seconds,
            "pairs": args.pairs,
            "seeds": seeds,
            "first": "base on even pairs (0-based), change on odd ones",
        },
        "workloads": {},
    }
    for w in workloads:
        names = list(runs[w]["base"][0])
        metrics = {
            name: {
                "unit": runs[w]["base"][0][name]["unit"],
                **summarize(*([r[name]["value"] for r in runs[w][side]] for side in SIDES)),
            }
            for name in names
        }
        out["workloads"][w] = metrics
        show(w, metrics)
    base, change = (sizes[side] for side in SIDES)
    moved = ", ".join(
        f"{name} {base.get(name, 0)} -> {change.get(name, 0)}"
        for name in sorted(base.keys() | change.keys())
        if base.get(name) != change.get(name)
    )
    print(f"code lines: base {sum(base.values())} -> change {sum(change.values())}"
          + (f" ({moved})" if moved else ""))
    for side, run in tier1.items():
        out[side]["tier1"] = run
        counts = ", ".join(f"{run[name]} {name}" for name in TIER1_OUTCOMES)
        print(f"{side}: tier-1 exit {run['exit']}, {counts}, {run['wall_s']:.1f} s")
    if probes:
        out["probes"] = {"timeout_s": PROBE_TIMEOUT_S, "runs": probes}
        for side in SIDES:
            answered = sum(p[side]["exit"] in (0, 1) for p in probes)
            print(f"{side}: probes answered: {answered} of {len(probes)}")
        for p in probes:
            runs = "  ".join(
                f"{side} {p[side]['exit']} {p[side]['wall_s']:.2f} s"
                + ("" if p[side]["child_rss_mb"] is None else f" {p[side]['child_rss_mb']:.1f} MB")
                for side in SIDES
            )
            print(f"  {p['probe'][:40]:40s} {runs}")
    if args.out:
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
