"""Self-tests of the benchmark: ``python -m pytest benchmarks/ladder/tests -q``."""

import os
import sys

LADDER = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(os.path.dirname(LADDER))
for path in (os.path.join(ROOT, "src"), LADDER):
    if path not in sys.path:
        sys.path.insert(0, path)
