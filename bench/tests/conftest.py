"""Make the simulator importable in-process (child repetitions get PYTHONPATH)."""

import sys

from bench.run import ROOT

if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
