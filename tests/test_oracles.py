"""The brute-force oracles: their nested loops against per-tuple products,
and their independence from the library."""

import ast
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

import oracles

TESTS = Path(__file__).resolve().parent


def _q_int(q, k):
    return sum((q**i for i in range(k)), Fraction(0))


def _harmonic_per_tuple(q, entries, n_max, star):
    # every index tuple's product built afresh, slot by slot
    chooser = combinations_with_replacement if star else combinations
    out = []
    for n in range(n_max + 1):
        total = Fraction(0)
        for asc in chooser(range(1, n + 1), len(entries)):
            term = Fraction(1)
            for (mag, sign), k in zip(entries, reversed(asc)):
                term *= q**k / (Fraction(sign) ** k * _q_int(q, k) ** mag)
            total += term
        out.append(total)
    return out


def _buckets_per_tuple(factor, n_max):
    buckets = [Fraction(0)] * (n_max + 1)
    for asc in combinations(range(1, n_max + 1), len(factor)):
        term = Fraction(1)
        for row, k in zip(factor, reversed(asc)):
            term *= row[k]
        buckets[asc[-1]] += term
    return buckets


def test_nested_oracle_sums_equal_the_per_tuple_products():
    rng = random.Random(8)
    for trial in range(60):
        q = (Fraction(1, 2), Fraction(2, 3), Fraction(7, 8), Fraction(2, 9))[trial % 4]
        depth = trial % 3 + 1
        n_max = rng.randint(0, 8)
        entries = [(rng.randint(0, 3), rng.choice((1, -1))) for _ in range(depth)]
        for star in (False, True):
            expect = _harmonic_per_tuple(q, entries, n_max, star)
            assert oracles.harmonic_all_n(q, entries, n_max, star) == expect, (q, entries, star)
        slots = [(e, rng.randint(0, 3), rng.choice((None, -2, -1, 0, 1, 2))) for e in entries]
        factor = oracles._mollified_factors(q, slots, n_max)
        expect = _buckets_per_tuple(factor, n_max)
        assert oracles._mollified_buckets(q, slots, n_max) == expect, (q, slots)


def test_oracles_import_no_library_code():
    # the oracles are the ground truth for the library, so they must not
    # run any of its code: imported with only tests/ added to the path, they
    # load no qzeta module, and no import statement in them names one
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"
        "import oracles\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'qzeta'))"
    )
    proc = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    tree = ast.parse((TESTS / "oracles.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in the oracles"
            modules = [node.module]
        else:
            continue
        assert all(name.split(".")[0] != "qzeta" for name in modules), modules
