"""Fresh-interpreter set-up of one workload: import ordpat, then warm up.

Usage: python perfbench/warmup.py <workload> [--import-only]

Prints the seconds the import took (ordpat, plus ordpat.cli for the CLI
workloads). The caller times the whole process from spawn to exit.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
workload = sys.argv[1]
start = time.perf_counter()
import ordpat  # noqa: E402

if workload.startswith("cli"):
    import ordpat.cli  # noqa: E402,F401
import_s = time.perf_counter() - start

if "--import-only" not in sys.argv[2:]:
    if workload.startswith("cli"):
        import cliwork

        cliwork.warm_up()
    else:
        import library

        library.warm_up(workload)
print(repr(import_s))
