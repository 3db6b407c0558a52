"""The scripts under scripts/ run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, expect",
    [
        ("run_verification.py", ("--quick", "--skip-classical"), "all passed"),
        ("key_identity_demo.py", ("-a", "1", "--terms", "100000"), "numeric-pass"),
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
    # command line must run without them
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code = (
        "import sys, qzeta, qzeta.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('sympy', 'mpmath')))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
