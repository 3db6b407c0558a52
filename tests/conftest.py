import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from qzeta import QContext


def _memos() -> list:
    """Every memo in the qzeta modules: the functions with a cache_info."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name == "qzeta" or name.startswith("qzeta."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_info", None)):
                    seen[id(value)] = value
    return list(seen.values())


@pytest.fixture(autouse=True)
def cold_memos():
    # every test starts from empty q-level memos, so a test that counts the
    # work of a search or a column build sees its own calls only
    for memo in _memos():
        memo.cache_clear()


@pytest.fixture
def qzeta_memos():
    return _memos()


@pytest.fixture(scope="session")
def ctx_half():
    return QContext(Fraction(1, 2))


@pytest.fixture(scope="session")
def ctx_third():
    return QContext(Fraction(1, 3))


@pytest.fixture(scope="session")
def ctx_nine_tenths():
    return QContext(Fraction(9, 10))
