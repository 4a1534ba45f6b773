"""Start the serve daemon through its public entry point, optionally traced.

``repro.serve.server.serve(port=0, jobs=1, cache_dir=STORE,
ready_file=READY)`` runs until SIGTERM drains it. With ``--trace`` the
ledger's wrappers (including ``SimulationService.handle``) are installed
first. Calibration bursts at start-up and right before ``serve()`` turn its
time to ready into reference seconds. On exit the launcher writes
``{"rss_mb", "spans", "bursts"}`` to ``--out``.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys

from ledger import START_BURSTS, Ledger, install, write_json


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--store", required=True, help="run-cache directory")
    ap.add_argument("--ready", required=True, help="ready file to write")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--core", type=int, help="pin to this CPU")
    args = ap.parse_args(argv)
    if args.core is not None:  # before serve() starts any thread
        os.sched_setaffinity(0, {args.core})

    ledger = Ledger()
    ledger.calibrate(START_BURSTS)
    if args.trace:
        install(ledger, full=True, serve=True)
    from repro.serve.server import serve

    ledger.calibrate(START_BURSTS)
    rc = serve(port=0, jobs=1, cache_dir=args.store, ready_file=args.ready)
    write_json(args.out, {
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "spans": ledger.dump(),
        "bursts": ledger.bursts,
    })
    return rc


if __name__ == "__main__":
    sys.exit(main())
