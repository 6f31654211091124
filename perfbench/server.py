"""Server launcher: one ``repro serve`` daemon for one benchmark workload.

Usage (``src`` on ``PYTHONPATH``)::

    python3 perfbench/server.py --workload heavy-single --trace 0 [--journal DIR]

It starts :func:`repro.serving.run_daemon` on port 0 and prints
``{"port": N}`` as its first stdout line.  With ``--trace 1`` it first wraps
the daemon's entry points with :mod:`perfbench.layers` timers; each SIGUSR1
then prints one JSON line of the timer totals.  SIGTERM drains and exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench import layers  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402
from repro.serving import run_daemon  # noqa: E402


def _emit(document: dict) -> None:
    os.write(sys.stdout.fileno(), (json.dumps(document) + "\n").encode())


def main(argv=None) -> int:
    # The launcher holds its interrupts while it starts this process (so the
    # process cannot be orphaned) and the mask is inherited: release it.
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM, signal.SIGINT, signal.SIGALRM})
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--journal", default=None, help="journal directory")
    args = parser.parse_args(argv)

    if args.trace:
        timers = layers.LayerTimers()
        layers.install(timers)
        signal.signal(signal.SIGUSR1, lambda *_: _emit(timers.snapshot()))
    run_daemon(
        WORKLOADS[args.workload].spec(),
        host="127.0.0.1",
        port=0,
        journal_dir=args.journal,
        announce=lambda host, port: _emit({"port": port}),
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
