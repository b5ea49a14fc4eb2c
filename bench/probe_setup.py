"""Set-up probe: prints the seconds a fresh interpreter needs to import
fraktur_bench.cli and load the default codec and rules, then the median
seconds of three calibration loops run right after in the same process.

    python3 bench/probe_setup.py <src-dir>

The clock starts after interpreter start-up, so its noise stays out.
Every CLI invocation pays this cost.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import fraktur_bench.cli  # noqa: E402,F401
from fraktur_bench import default_codec, default_rules  # noqa: E402

default_codec()
default_rules()
setup = time.perf_counter() - start

sys.path.insert(0, str(Path(__file__).resolve().parent))
from checks import calibrate  # noqa: E402

print(repr(setup), repr(sorted(calibrate() for _ in range(3))[1]))
