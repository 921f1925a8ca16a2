"""Process set-up shared by every benchmark entry point.

Import this module before anything imports numpy: it pins BLAS to one
thread and puts the checkout's own ``src`` first on ``sys.path``, so the
benchmark always measures the source next to it and never an installed copy.
"""
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "dreamrand" / "__init__.py").is_file():
    sys.exit(f"perfbench: no dreamrand package under {SRC}; run from a checkout that holds src/")
sys.path.insert(0, str(SRC))

import dreamrand  # noqa: E402

if Path(dreamrand.__file__).resolve().parent != SRC / "dreamrand":
    sys.exit(f"perfbench: imported dreamrand from {dreamrand.__file__}, not from {SRC}")
