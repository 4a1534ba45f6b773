"""One experiment-regeneration pass in a fresh interpreter.

Runs ``repro.experiments.run_experiments(ids, jobs=1, cache_dir=STORE)``
exactly as ``advection-repro experiment <ids> [--fast]`` would, with the
ledger's wrappers installed, and writes one JSON record to ``--out``:

* ``t_first``/``t_end``: clock stamps bracketing the pass (the parent's
  spawn stamp to ``t_first`` is this process's set-up time);
* ``bursts``: the speed-calibration bursts at start-up, around and
  (untraced) inside the pass, which turn its walls into reference seconds;
* ``digests``: per experiment, the sha256 of its rows and series at full
  ``repr`` precision (the ``tools/dump_experiments.py`` entry format);
* ``spans``: the ledger dump; ``rss_mb``: this process's peak RSS.

``--corrupt`` nudges one result by one ulp before digesting, which the
correctness gate must catch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import sys

from ledger import CLOCK, START_BURSTS, Ledger, install, write_json

#: Calibration bursts run right before and right after the timed pass.
EDGE_BURSTS = 5


def dump_entry(result) -> dict:
    """One experiment in the ``tools/dump_experiments.py`` format."""
    return {
        "columns": result.columns,
        "rows": [[repr(v) for v in row] for row in result.rows],
        "series": {
            name: {repr(k): repr(v) for k, v in pts.items()}
            for name, pts in result.series.items()
        },
    }


def digest(entry: dict) -> str:
    """Canonical digest of a dump entry (shared with the parent's gate)."""
    blob = json.dumps(entry, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def corrupt(entry: dict) -> None:
    """Move the first float cell of the entry's rows up by one ulp."""
    for row in entry["rows"]:
        for i, cell in enumerate(row):
            try:
                value = float(cell)
            except ValueError:
                continue
            row[i] = repr(math.nextafter(value, math.inf))
            return
    raise ValueError("no float cell to corrupt")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--ids", required=True, help="comma-separated experiment ids")
    ap.add_argument("--full", action="store_true", help="full mode (default --fast)")
    ap.add_argument("--store", required=True, help="run-cache directory")
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", action="store_true", help="wrap every layer")
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    ledger = Ledger()
    ledger.calibrate(START_BURSTS)
    install(ledger, full=args.trace)
    from repro.experiments import run_experiments

    ids = args.ids.split(",")
    ledger.calibrate(EDGE_BURSTS)
    t_first = CLOCK()
    results = run_experiments(ids, fast=not args.full, jobs=1,
                              cache_dir=args.store)
    t_end = CLOCK()
    ledger.calibrate(EDGE_BURSTS)
    entries = {r.exp_id: dump_entry(r) for r in results}
    if args.corrupt:
        corrupt(entries[ids[0]])
    record = {
        "t_first": t_first,
        "t_end": t_end,
        "digests": {eid: digest(e) for eid, e in entries.items()},
        "spans": ledger.dump(),
        "bursts": ledger.bursts,
    }
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
