"""Load the predlift package from this checkout's ``src/`` directory.

Every benchmark script imports this module first, so the code measured is
the code in the checkout and never an installed copy.  Without ``src/`` the
benchmark stops with exit code 1 before it prints a result.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

sys.path.insert(0, str(SRC))
try:
    import predlift
except ImportError as exc:
    sys.exit(f"perfbench: cannot import predlift from {SRC}: {exc}")
if Path(predlift.__file__).resolve().parent.parent != SRC:
    sys.exit(f"perfbench: predlift was imported from {predlift.__file__}, not from {SRC}")
