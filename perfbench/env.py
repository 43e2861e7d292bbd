"""Locate the checkout and put its sources and test oracles on sys.path.

The benchmark runs from a source checkout, never an installed package, so
every module here imports ``env`` first.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests"

for _p in (str(SRC), str(ORACLES)):
    if _p not in sys.path:
        sys.path.insert(0, _p)


def missing():
    """Files the benchmark needs that the checkout lacks."""
    need = [SRC / "skeinrep" / "__init__.py", ORACLES / "oracles.py"]
    return [str(p.relative_to(ROOT)) for p in need if not p.is_file()]
