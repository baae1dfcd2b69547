"""Mode decomposition, beat-aligned analysis, and IMF-level editing of
motion-capture signals.

Each public name lives in one module and is imported from it, e.g.
``from hhtmotion.signal_core import emd``; a module's ``__all__`` lists its API.
"""

__version__ = "0.1.0"

import os

# Set before numpy loads: the only BLAS call is a 13x64 projection, and an idle
# OpenBLAS pool burned CPU beside it (2 cores: decompose 1.9 -> 1.0 s CPU).
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
