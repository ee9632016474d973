"""Set-up time of snse in a fresh interpreter; started by run.py.

Times importing snse, parse_config (with its summability gate), building
the OperatorContext, and filling the transform tables of the product grid
(one nonlinear_B) and of the L4 grid (one l4_norm).  Prints
{"setup_s": ...} on stdout.

usage: setup_probe.py CONFIG MODE
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import snse.cli  # noqa: E402
from snse.diagnostics import l4_norm  # noqa: E402
from snse.harmonics import unit_stream_mode  # noqa: E402
from snse.operators import nonlinear_B  # noqa: E402

cfg = snse.cli.parse_config(sys.argv[1], mode=sys.argv[2])
ctx = cfg.operator_context()
field = unit_stream_mode(cfg.lmax, 1)
nonlinear_B(field, ctx)
l4_norm(field)
print(json.dumps({"setup_s": time.perf_counter() - t0}))
