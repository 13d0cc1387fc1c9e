"""Print the seconds this fresh process takes to import fblab and build its CLI parser.

Only ``os``, ``sys`` and ``time`` are imported before the clock starts, so
the figure includes every module the CLI pulls in.  A ``speed.sample()``
taken afterwards is printed next to it, for rescaling.
"""

import os
import sys
import time

src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if not os.path.isfile(os.path.join(src, "fblab", "__init__.py")):
    raise SystemExit(f"no fblab package under {src}")
sys.path.insert(0, src)
t0 = time.perf_counter()
from fblab import cli  # noqa: E402

cli.build_parser()
elapsed = time.perf_counter() - t0
if not os.path.abspath(cli.__file__).startswith(src + os.sep):
    raise SystemExit(f"imported fblab from {cli.__file__}, not from {src}")
import speed  # noqa: E402

print(repr(elapsed), repr(speed.sample()))
