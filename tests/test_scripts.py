"""The scripts under scripts/ run end to end on small inputs."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import qzeta
from qzeta import VerificationReport

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("run_verification.py", ("--quick", "--skip-classical"), "all passed"),
        ("key_identity_demo.py", ("-a", "1", "--terms", "100000"), "numeric-pass"),
        ("run_verification.py", ("--quick",), "all passed"),
    ],
)
def test_script_exits_zero(script, args, expect):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert expect in proc.stdout


def test_import_loads_neither_sympy_nor_mpmath():
    # both are installed for use as test oracles only; the library and its
    # command line must run without them.  numpy is loaded only by the float
    # engine of the classical check, so the exact paths start without it
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = (
        "import sys, qzeta, qzeta.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath', 'numpy')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _failing(case: str) -> VerificationReport:
    return VerificationReport(
        case=case,
        family="stub",
        params={"eps": "1/1000"},
        status="fail",
        discrepancy="0.5",
        tail_bound="1/2000",
    )


def _run_script(monkeypatch, capsys, script: str, *args: str) -> tuple:
    """Run a script in this process as __main__; its exit code, stdout and
    stderr."""
    path = str(ROOT / "scripts" / script)
    monkeypatch.setattr(sys, "argv", [path, *args])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(path, run_name="__main__")
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


def test_demo_exits_one_when_the_q_series_check_fails(monkeypatch, capsys):
    # the classical check passes, so only the q-series verdict can set the
    # exit code; the line names eps, the bound the check passes under
    monkeypatch.setattr(qzeta, "verify_qmzsv", lambda *args, **kwargs: _failing("stub"))
    code, out, _ = _run_script(
        monkeypatch, capsys, "key_identity_demo.py", "-a", "1", "--terms", "100000"
    )
    assert code == 1
    assert "  fail: |lhs - rhs| = 0.5, eps = 1/1000 (tail bound 1/2000)" in out
    assert "numeric-pass: |lhs - rhs| =" in out.split("classical check:")[1]


@pytest.mark.parametrize(
    "args, message",
    [
        (("--q", "1/0"), "q must be a rational number, got '1/0'"),
        (("--q", "3/2"), "q must lie strictly between 0 and 1, got 3/2"),
        (("--eps", "abc"), "eps must be a rational number, got 'abc'"),
    ],
)
def test_demo_exits_two_on_a_q_or_eps_it_cannot_read(monkeypatch, capsys, args, message):
    # refused before anything is printed or summed, with the library's message
    code, out, err = _run_script(monkeypatch, capsys, "key_identity_demo.py", *args)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "args, message",
    [
        (("--terms", "0"), "K must be >= 1, got 0"),
        (("-a", "40", "--terms", "1000"), "series depth 44 exceeds 32"),
    ],
)
def test_demo_exits_two_on_an_input_the_library_refuses(monkeypatch, capsys, args, message):
    # a refusal is exit 2 with the library's message, as qzeta gives it, not
    # a traceback and exit 1, which would read as a failed check; the depth
    # cap is met by the classical check, after the q-series check has passed
    code, _, err = _run_script(monkeypatch, capsys, "key_identity_demo.py", *args)
    assert (code, err) == (2, f"error: {message}\n")


def test_fuzz_sweep_verdict_reads_its_own_reports(monkeypatch, capsys):
    # a failing lemma is reported as the lemma's failure, not the sweep's
    monkeypatch.setattr(qzeta, "lemma_suite", lambda **kwargs: [_failing("stub lemma")])
    code, out, _ = _run_script(
        monkeypatch, capsys, "run_verification.py", "--quick", "--skip-classical"
    )
    assert code == 1
    assert "[FAIL] fail         stub lemma" in out
    assert "[ok ] exact-pass    fuzz sweep: 20 seeded compositions" in out
    assert "[FAIL] fuzz sweep" not in out
    assert "FAILURES PRESENT" in out


def test_bench_pairs_runs_one_pair_against_head(tmp_path):
    # one pair of one small workload: both trees are built (the base from
    # git, no network), qzbench/run.py runs in each, and the JSON holds both
    # sides' end-to-end metrics and the machine block
    head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True)
    if head.returncode:
        pytest.skip("not a git checkout with a commit")
    def git(*args):
        return subprocess.run(
            ["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True
        ).stdout.strip()

    index = ROOT / git("rev-parse", "--git-path", "index")
    staged = index.read_bytes() if index.is_file() else None
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--base", "HEAD",
            "--workload", "finite-wide", "--pairs", "1", "--seconds", "0.2",
            "--out", str(out),
        ],
        env=dict(os.environ, TMPDIR=str(tmp_path)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lower in" in proc.stdout
    result = json.loads(out.read_text())
    assert set(result["workloads"]) == {"finite-wide"}
    metrics = result["workloads"]["finite-wide"]
    end_to_end = {"setup_s", "wall_s", "case_ms_p50", "case_ms_tail", "pass_ratio", "peak_rss_mb"}
    assert end_to_end <= set(metrics)
    for m in metrics.values():
        assert len(m["base"]["runs"]) == len(m["change"]["runs"]) == m["pairs"] == 1
    passed = metrics["pass_ratio"]
    assert passed["base"]["median"] == passed["change"]["median"] == 1.0
    # each run's child CPU time is summarized next to them
    cpu = metrics["child_cpu_s"]
    assert cpu["unit"] == "s" and cpu["base"]["runs"][0] > 0 and cpu["change"]["runs"][0] > 0
    assert result["machine"]["nproc"] and result["protocol"]["seeds"] == [3001]
    # both sides are named by their git tree ids, and the change's was
    # written without touching the real index
    assert result["base"]["tree"] == git("rev-parse", "HEAD^{tree}")
    assert git("cat-file", "-t", result["change"]["tree"]) == "tree"
    assert git("ls-tree", "--name-only", result["change"]["tree"], "scripts/bench_pairs.py")
    assert (index.read_bytes() if index.is_file() else None) == staged
    # next to each tree id, the code lines of its src/qzeta, in all and
    # per module
    code_lines = _bench_pairs()["code_lines"]
    sources = sorted((ROOT / "src" / "qzeta").glob("*.py"))
    by_module = {p.name: code_lines(p.read_text()) for p in sources}
    assert result["change"]["code_lines_by_module"] == by_module
    assert result["change"]["code_lines"] == sum(by_module.values())
    assert result["base"]["code_lines"] == sum(result["base"]["code_lines_by_module"].values())
    assert "levels.py" in result["base"]["code_lines_by_module"]
    assert result["base"]["code_lines"] > 0
    # the trees were removed
    assert [p.name for p in tmp_path.iterdir()] == ["bench.json"]


def _bench_pairs() -> dict:
    """The functions of scripts/bench_pairs.py, loaded without running it."""
    return runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))


def test_bench_pairs_counts_code_lines_without_comments_or_docstrings():
    # a line counts when it holds a token that is neither a comment nor a
    # docstring: a multi-line string counts on each of its lines, the
    # docstring of a module, class or function on none, and a string that
    # is not the first statement of its body is code
    code_lines = _bench_pairs()["code_lines"]
    source = "\n".join([
        '"""Module docstring,',
        'on two lines."""',
        "# a comment",
        "",
        "import os  # code, with a trailing comment",
        "",
        "",
        "class A:  # code",
        "    'Class docstring.'",
        "",
        "    def f(self):  # code",
        '        """Function',
        '        docstring."""',
        "        text = '''one  # code, as are the two lines below",
        "two",
        "'''",
        "        'not a docstring'  # code",
        "        return (text,  # code",
        "                # a comment inside brackets",
        "                os.sep)  # code",
        "",
    ])
    assert code_lines(source) == 9
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n') == 0


def test_bench_pairs_reads_a_planted_delay_as_slower():
    # the change side is the base plus a fixed delay in every pair: lower in
    # none of them, a median ratio above 1 and a negative gap in base IQRs
    summarize = _bench_pairs()["summarize"]
    base = [1.0, 1.3, 0.9, 1.1, 1.2, 1.05, 0.95, 1.25, 1.15, 1.0]
    delayed = [x + 0.05 for x in base]
    s = summarize(base, delayed)
    assert (s["lower_in"], s["pairs"]) == (0, 10)
    assert s["ratio"] > 1
    assert s["gap_iqr"] < 0
    assert (s["base"]["runs"], s["change"]["runs"]) == (base, delayed)
    # read the other way round, the delay is on the base side in every pair
    s = summarize(delayed, base)
    assert s["lower_in"] == 10 and s["ratio"] < 1 and s["gap_iqr"] > 0


def test_bench_pairs_counts_ties_for_neither_side():
    summarize = _bench_pairs()["summarize"]
    base, change = [1.0, 2.0, 3.0, 4.0], [1.0, 1.5, 3.0, 5.0]
    assert summarize(base, change)["lower_in"] == 1
    assert summarize(change, base)["lower_in"] == 1
    assert summarize(base, base)["lower_in"] == 0


def test_bench_pairs_statistics_of_a_flat_base_and_of_one_pair():
    bench = _bench_pairs()
    summarize, quartiles = bench["summarize"], bench["quartiles"]
    # a base with no spread has no IQR to measure the gap in
    s = summarize([2.0, 2.0, 2.0], [1.0, 3.0, 1.5])
    assert s["gap_iqr"] is None and s["ratio"] == 0.75 and s["lower_in"] == 2
    # one pair: its value is all three quartiles
    assert quartiles([0.7]) == (0.7, 0.7, 0.7)
    s = summarize([0.7], [0.5])
    assert (s["base"]["q1"], s["base"]["median"], s["base"]["q3"]) == (0.7, 0.7, 0.7)
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (0.5, 0.5, 0.5)
    assert (s["lower_in"], s["pairs"], s["gap_iqr"]) == (1, 1, None)


def test_bench_pairs_records_a_probe_past_its_timeout_and_a_refusal(tmp_path):
    # a probe runs ``python -m qzeta.cli`` in a side's tree: one whose cli
    # sleeps past the timeout is recorded as timed out, and a refusal keeps
    # its exit code and the first line of its message
    run_probe = _bench_pairs()["run_probe"]
    cli = tmp_path / "src" / "qzeta"
    cli.mkdir(parents=True)
    (cli / "__init__.py").write_text("")
    (cli / "cli.py").write_text("import time\ntime.sleep(30)\n")
    slow = run_probe(tmp_path, "verify 2,1", timeout=0.2)
    assert slow["exit"] == "timeout" and slow["stderr"] == ""
    assert 0.2 <= slow["wall_s"] < 10 and slow["child_cpu_s"] >= 0
    refused = run_probe(ROOT, "eval mhs-star --s 1^300 --n 300")
    assert refused["exit"] == 2
    assert refused["stderr"].startswith("error: work estimate ")
    assert refused["stderr"].endswith(" for a harmonic sum")
    assert 0 < refused["wall_s"] < 10 and refused["child_cpu_s"] > 0


def test_bench_pairs_labels_the_change_by_the_tree_it_measured(tmp_path, monkeypatch):
    # the change side's head and dirty flag are taken when its tree is
    # written: an edit made while the runs go on relabels nothing, and an
    # edit made before them marks the record dirty, next to the tree that
    # was measured
    import itertools
    import tempfile

    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*args):
        return subprocess.run(
            ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
            capture_output=True, text=True, check=True,
        ).stdout.strip()

    git("init", "-q")
    (repo / "notes.txt").write_text("committed\n")
    git("add", "-A")
    git("commit", "-q", "-m", "one file")
    head, head_tree = git("rev-parse", "HEAD"), git("rev-parse", "HEAD^{tree}")

    bench = _bench_pairs()["main"].__globals__
    edits = itertools.count(1)

    def run_side(tree, workload, seed, seconds):
        (repo / "notes.txt").write_text(f"edit {next(edits)}\n")
        return {"machine": {"nproc": 1}}, {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}, 0.0

    monkeypatch.setitem(bench, "ROOT", repo)
    monkeypatch.setitem(bench, "run_side", run_side)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "bench.json"
    argv = ["bench_pairs.py", "--base", "HEAD", "--workload", "finite-wide", "--pairs", "1"]
    monkeypatch.setattr(sys, "argv", [*argv, "--out", str(out)])
    assert bench["main"]() == 0
    change = json.loads(out.read_text())["change"]
    assert change == {
        "head": head, "dirty": False, "tree": head_tree, "code_lines": 0, "code_lines_by_module": {}
    }
    # the second run starts from the last edit the first one made, one run
    # of each side
    assert bench["main"]() == 0
    change = json.loads(out.read_text())["change"]
    assert change["head"] == head and change["dirty"] and change["tree"] != head_tree
    assert git("cat-file", "-p", f"{change['tree']}:notes.txt") == "edit 2"


def test_bench_pairs_records_each_childs_own_peak_rss(tmp_path):
    # a probe's peak RSS is its own VmHWM, which starts from nothing at
    # exec: from a driver that has touched 100 MB, an empty probe reads far
    # less than the driver, as the rusage of a child, which starts from its
    # parent's peak, would not, and a probe that touches 64 MB reads at
    # least that.  A probe killed at the timeout prints no VmHWM
    touch = "b = bytearray({} << 20)\nb[::4096] = b'1' * len(b[::4096])\n"
    cli = tmp_path / "src" / "qzeta"
    cli.mkdir(parents=True)
    (cli / "__init__.py").write_text("")
    (cli / "cli.py").write_text("")
    (tmp_path / "big_cli.py").write_text(touch.format(64) + "raise SystemExit(1)\n")
    (tmp_path / "slow_cli.py").write_text("import time\ntime.sleep(30)\n")
    driver = touch.format(100) + f"""
import json, runpy, shutil
from pathlib import Path
bench = runpy.run_path({str(ROOT / "scripts" / "bench_pairs.py")!r})
tree = Path({str(tmp_path)!r})
small = bench["run_probe"](tree, "verify 2,1")
shutil.copy(tree / "big_cli.py", tree / "src" / "qzeta" / "cli.py")
big = bench["run_probe"](tree, "verify 2,1")
shutil.copy(tree / "slow_cli.py", tree / "src" / "qzeta" / "cli.py")
slow = bench["run_probe"](tree, "verify 2,1", timeout=0.2)
print(json.dumps([small, big, slow]))
"""
    proc = subprocess.run([sys.executable, "-c", driver], capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    small, big, slow = json.loads(proc.stdout)
    assert small["exit"] == 0 and 0 < small["child_rss_mb"] < 30
    assert big["exit"] == 1 and big["child_rss_mb"] >= 64
    assert slow["exit"] == "timeout" and slow["child_rss_mb"] is None


def test_bench_pairs_probes_parse():
    # a mistyped probe fails here, instead of reading in a BENCH file as
    # an exit-2 refusal
    from qzeta.cli import build_parser

    parser = build_parser()
    for probe in _bench_pairs()["PROBES"]:
        assert parser.parse_args(probe.split()).func, probe


def test_bench_pairs_prints_a_probe_with_no_peak_rss(tmp_path, monkeypatch, capsys):
    # a probe killed at the timeout records no peak RSS, and the printed
    # table shows its exit and wall time without one; above the table each
    # side's code lines are printed, with every module whose count changed
    # and none that kept its count
    import tempfile

    repo = tmp_path / "repo"
    source = repo / "src" / "qzeta"
    source.mkdir(parents=True)
    (source / "kept.py").write_text("a = 1\n")
    (source / "shrunk.py").write_text("b = 2\nc = 3\n")
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "two modules"]):
        subprocess.run([*git, *args], capture_output=True, check=True)
    (source / "shrunk.py").write_text("# a comment\nb = 2\n")
    (source / "new.py").write_text('"""A docstring."""\nd = 4\n')
    bench = _bench_pairs()["main"].__globals__

    def run_side(tree, workload, seed, seconds):
        return {"machine": {}}, {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}, 0.0

    def run_probe(tree, probe):
        rss = None if tree.name == "base" else 17.5
        code = "timeout" if rss is None else 0
        return {"exit": code, "stderr": "", "wall_s": 1.0, "child_cpu_s": 0.5, "child_rss_mb": rss}

    def run_tier1(tree):
        return {"exit": 0, "wall_s": 2.0, "passed": 3, "failed": 0, "skipped": 1, "errors": 0}

    monkeypatch.setitem(bench, "ROOT", repo)
    monkeypatch.setitem(bench, "run_side", run_side)
    monkeypatch.setitem(bench, "run_probe", run_probe)
    monkeypatch.setitem(bench, "run_tier1", run_tier1)
    monkeypatch.setitem(bench, "PROBES", ("verify 2,1",))
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "bench.json"
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "--base", "HEAD", "--pairs", "1",
                                      "--out", str(out)])
    assert bench["main"]() == 0
    lines = capsys.readouterr().out.splitlines()
    assert "code lines: base 3 -> change 3 (new.py 0 -> 1, shrunk.py 2 -> 1)" in lines
    assert lines[-1].split() == "verify 2,1 base timeout 1.00 s change 0 1.00 s 17.5 MB".split()
    result = json.loads(out.read_text())
    probe = result["probes"]["runs"][0]
    assert probe["base"]["child_rss_mb"] is None and probe["change"]["child_rss_mb"] == 17.5
    # a full run records each side's tier-1 run next to its code lines
    for side in ("base", "change"):
        assert result[side]["tier1"] == run_tier1(None)
        assert "code_lines" in result[side]


def test_bench_pairs_reads_the_counts_of_pytests_summary_line():
    # the last line that names an outcome is the summary; an outcome it
    # leaves out counts 0, "error" and "errors" count alike, warnings and
    # deselected tests count for nothing, and output with no summary gives
    # None for every count
    tier1_counts = _bench_pairs()["tier1_counts"]
    out = "....s.F [100%]\nACCEPTANCE 4 [pass] sweep: 200 seeded compositions\n"
    assert tier1_counts(out + "302 passed in 41.75s\n") == {
        "passed": 302, "failed": 0, "skipped": 0, "errors": 0
    }
    summary = "1 failed, 300 passed, 1 skipped, 3 deselected, 2 warnings in 40.12s"
    assert tier1_counts(out + summary) == {"passed": 300, "failed": 1, "skipped": 1, "errors": 0}
    summary = "== 2 passed, 1 error in 0.50s =="
    assert tier1_counts(summary) == {"passed": 2, "failed": 0, "skipped": 0, "errors": 1}
    assert tier1_counts("3 failed, 1 passed, 2 errors in 1.0s\ntrailing words") == {
        "passed": 1, "failed": 3, "skipped": 0, "errors": 2
    }
    assert tier1_counts("no tests ran in 0.01s") == dict.fromkeys(
        ("passed", "failed", "skipped", "errors")
    )


def test_bench_pairs_probes_a_batch_that_records_level_columns(capsys):
    # a single check keeps no level column; a batch of checks at one (q, n)
    # is the probe that keeps and records them
    from qzeta.cli import main
    from qzeta.levels import Levels

    assert "verify random --count 100 --n-max 60" in _bench_pairs()["PROBES"]
    Levels.cache_clear()
    assert main(["verify", "2,1", "--n-max", "60"]) == 0
    assert Levels.cache_info().currsize == 0
    assert main(["verify", "random", "--count", "5", "--n-max", "60"]) == 0
    assert Levels.cache_info().currsize > 0
