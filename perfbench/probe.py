"""Set-up probe: one fresh interpreter imports the ``adcut`` CLI and runs a
single command, the way the ``adcut`` console script would.

Usage: python3 probe.py SRC_DIR ADCUT_ARGS...

Prints one JSON line with the import time in milliseconds and the exit code;
the caller times the whole process from outside.
"""

import sys
import time

if __name__ == "__main__":
    started = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from adcut.cli import main

    imported = time.perf_counter()
    code = main(sys.argv[2:])
    print(f'{{"import_ms": {(imported - started) * 1000.0!r}, "rc": {code}}}', flush=True)
    sys.exit(code)
