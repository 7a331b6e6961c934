"""Lets ``python -m pytest perfbench`` import the library from ``src/``."""

import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)
