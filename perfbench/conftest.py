"""Make the benchmark's modules and the program importable in its tests.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for path in (_HERE, _HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
