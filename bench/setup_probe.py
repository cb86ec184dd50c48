"""Time urlab's set-up in a fresh interpreter.

Set-up is what every command-line run pays before any simulation: the
import of urlab (with numpy and scipy), config parsing and filter
materialization.  Prints one JSON line with the seconds taken and the
resident set size at the end, which is the baseline for peak-RSS figures
of fresh urlab processes.

    PYTHONPATH=src python3 bench/setup_probe.py bench/configs/readme.ini
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

from urlab import cli, materialize_filter  # noqa: E402

with open(sys.argv[1], encoding="utf-8") as fh:
    config, _targets = cli.load_run(fh.read())
materialize_filter(config.filter_spec)
setup_s = time.perf_counter() - _T0

with open("/proc/self/statm", encoding="ascii") as fh:
    rss_pages = int(fh.read().split()[1])
print(json.dumps({"setup_s": setup_s, "rss_bytes": rss_pages * os.sysconf("SC_PAGE_SIZE")}))
