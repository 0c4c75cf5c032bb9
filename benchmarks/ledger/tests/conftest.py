"""Make the ledger's flat modules importable from its tests."""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parents[1]
if str(LEDGER) not in sys.path:
    sys.path.insert(0, str(LEDGER))
