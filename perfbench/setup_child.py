"""Set-up cost of one thermint invocation, timed in a fresh interpreter.

Imports ``thermint.cli``, builds the first cell's system, discretizes it
with `midpoint_discretize` and initializes it, then prints the import
time and the total time as JSON.  The cell comes as a JSON argument;
``src`` must be on PYTHONPATH.
"""

import json
import sys
import time

t0 = time.perf_counter()
import thermint.cli  # noqa: E402,F401  (the import is what is timed)

t_import = time.perf_counter() - t0

from thermint.discrete import midpoint_discretize  # noqa: E402
from thermint.solve import initialize  # noqa: E402
from thermint.systems import get_system  # noqa: E402

spec = json.loads(sys.argv[1])
entry = get_system(spec["system"], **spec["params"])
midpoint_discretize(entry.lagrangian, spec["h"])
initialize(entry, spec["q0"], spec["v0"], spec["S0"], spec["h"], spec["mode"])
print(json.dumps({"import_s": t_import, "setup_s": time.perf_counter() - t0}))
