import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from kronekit import threads

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

sys.path.insert(0, str(Path(__file__).resolve().parent))
# pyproject's pythonpath reaches this process only; a `python -m kronekit.cli`
# subprocess finds the package through the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)


def config_path(name: str) -> str:
    return str(CONFIGS / name)


@pytest.fixture
def four_workers(monkeypatch):
    """Four workers, as if OpenBLAS had been given four threads at import, so
    the pool runs more threads than this box has cores."""
    pool = ThreadPoolExecutor(3, "kronekit-test")
    monkeypatch.setattr(threads, "_workers", 4)
    monkeypatch.setattr(threads, "_pool", pool)
    yield
    pool.shutdown()
