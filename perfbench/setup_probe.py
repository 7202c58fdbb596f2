"""One set-up in a fresh interpreter: import aedl, parse a workload config.

Usage: python3 setup_probe.py <src dir> <config file>
Prints one JSON line with the in-process import and parse times; the parent
times the whole set-up from process start to that line.
"""

import json
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from aedl.config import experiment_config_from_file  # noqa: E402  loads every aedl submodule

imported = time.perf_counter()
experiment_config_from_file(sys.argv[2])
parsed = time.perf_counter()
print(json.dumps({"import_s": imported - started, "config_s": parsed - imported}), flush=True)
