"""Run the ``repro-vp`` CLI and SIGKILL this process after its Nth cache put.

    python kill_after_puts.py N -- <repro-vp arguments>

The process kills itself right after the Nth ``ResultCache.put`` returns,
as a ``kill -9`` of the parent would land between two cache writes;
worker processes never put.  ``N`` of 0 never kills: the run ends
normally and prints ``puts: <count>`` on stderr, so a caller can draw a
kill point among an uninterrupted run's puts.
"""

from __future__ import annotations

import os
import signal
import sys

from repro.cli import main
from repro.engine.cache import ResultCache


def run(limit: int, argv: list[str]) -> int:
    original = ResultCache.put
    puts = 0

    def put(self, *args, **kwargs):
        nonlocal puts
        path = original(self, *args, **kwargs)
        puts += 1
        if puts == limit:
            os.kill(os.getpid(), signal.SIGKILL)
        return path

    ResultCache.put = put
    code = main(argv)
    print(f"puts: {puts}", file=sys.stderr)
    return code


if __name__ == "__main__":
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        sys.exit("usage: kill_after_puts.py N -- <repro-vp arguments>")
    sys.exit(run(int(sys.argv[1]), sys.argv[3:]))
