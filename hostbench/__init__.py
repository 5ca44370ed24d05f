"""hostbench: the repo's standing benchmark (see hostbench/README.md).

The engine under test lives in ``src/repro`` and is only ever reached
through its public functions, so this package needs ``src`` on the
import path; ``python3 hostbench/run.py`` carries no ``PYTHONPATH``.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
