import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"

sys.path.insert(0, str(Path(__file__).resolve().parent))
# pyproject's pythonpath reaches this process only; a `python -m kronekit.cli`
# subprocess finds the package through the environment
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)


def config_path(name: str) -> str:
    return str(CONFIGS / name)
