#!/usr/bin/env python3
"""The repository benchmark: one command per workload, metrics on the last line.

    python3 perfbench/run.py --workload regen --seed 1 --seconds 20 --trace 0

Workloads (load shapes and the layer -> metric map: ``perfbench/workloads.json``):

* ``regen``: ``experiment all --fast`` with one worker, a cold pass against
  an empty store then three warm passes against the store it filled, each
  in a fresh interpreter;
* ``spmv_full``: ``experiment spmv_overlap`` in full mode, same shape;
* ``serve_mix``: a fresh serve daemon per round, driven in a closed loop by
  one client over two connections with a seeded hot/store/cold query mix.

Every workload repeats its unit (cold and warm passes, or a daemon round)
until ``--seconds`` have passed, and reports medians of times in reference
seconds (see ``ledger.Speed``). ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs one plain unit and one unit with the
layer wrappers of ``perfbench/ledger.py`` and prints the per-layer metrics,
a layer table, and writes a Chrome trace under ``.perfbench/traces/``.

Correctness gate (any mismatch is a failed operation and fails the run):
``regen`` passes must match ``tests/experiments/golden_dump_fast.json``,
``spmv_full`` passes must match the digest pinned in ``perfbench/pins.json``,
and sampled ``serve_mix`` answers must equal direct runs of their configs.

``--smoke`` runs the same code at tiny sizes; ``--corrupt`` nudges one
result by one ulp so the gate can be seen to trip.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

from child import digest
from ledger import (CLOCK, PER_LAYER, Speed, chrome_trace, finish,
                    handle_spans, layer_table, merge, percentile,
                    run_durations_ms, summarize, write_json)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
GOLDEN = ROOT / "tests" / "experiments" / "golden_dump_fast.json"
PINS = HERE / "pins.json"

#: End-to-end metrics every workload reports with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("job_s", "s"),
    ("warm_job_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
)

#: Every child gets the time left of this budget, so a run ends within 180 s.
BUDGET_S = 170.0

#: Warm passes after each cold pass (each is also a set-up sample).
WARM_PASSES = 3


class ChildFailed(RuntimeError):
    """A benchmark child process failed or ran out of time."""


class Bench:
    """One benchmark invocation: work directory, children, gate tally."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.start = CLOCK()
        self.work = WORK / f"{args.workload}-{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = {k: v for k, v in os.environ.items() if k != "REPRO_CACHE_DIR"}
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []
        self._n = 0

    # -- plumbing -------------------------------------------------------------
    def path(self, stem: str) -> Path:
        self._n += 1
        return self.work / f"{self._n:03d}-{stem}"

    def remaining(self) -> float:
        return max(1.0, BUDGET_S - (CLOCK() - self.start))

    def measuring(self, units: int, minimum: int = 1) -> bool:
        """Whether to run another measured unit."""
        if units < minimum:
            return True
        return not self.args.smoke and CLOCK() - self.start < self.args.seconds

    def child(self, script: str, argv: List[str]) -> float:
        """Run a child to completion; returns its spawn stamp."""
        log = self.path("log")
        t_spawn = CLOCK()
        with open(log, "wb") as fh:
            try:
                proc = subprocess.run(
                    [sys.executable, str(HERE / script), *argv], cwd=ROOT,
                    env=self.env, stdout=subprocess.DEVNULL, stderr=fh,
                    timeout=self.remaining())
            except subprocess.TimeoutExpired:
                raise ChildFailed(f"{script} ran out of time")
        if proc.returncode != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-5:]
            raise ChildFailed(f"{script} exited {proc.returncode}: " + " | ".join(tail))
        return t_spawn

    def fail(self, count: int, note: str) -> None:
        self.failed += count
        self.notes.append(note)


# -- regen and spmv_full: experiment passes ----------------------------------
def experiment_pass(bench: Bench, ids: List[str], full: bool, store: Path,
                    trace: bool = False) -> Dict[str, Any]:
    out = bench.path("pass.json")
    argv = ["--ids", ",".join(ids), "--store", str(store), "--out", str(out)]
    argv += ["--full"] * full + ["--trace"] * trace + ["--corrupt"] * bench.args.corrupt
    t_spawn = bench.child("child.py", argv)
    with open(out, encoding="utf-8") as fh:
        rec = json.load(fh)
    out.unlink()
    rec["setup_s"] = Speed(rec["bursts"]).interval(t_spawn, rec["t_first"])
    return rec


def ref_s(rec: Dict[str, Any]) -> float:
    """Reference seconds of a pass (its wall at calibrated machine speed)."""
    return Speed(rec["bursts"]).interval(rec["t_first"], rec["t_end"])


def check_pass(bench: Bench, label: str, rec: Dict[str, Any],
               expected: Dict[str, str]) -> None:
    """Gate one pass: every experiment's digest must equal the reference."""
    bench.attempted += len(expected)
    bad = sorted(e for e, d in expected.items() if rec["digests"].get(e) != d)
    if bad:
        bench.fail(len(bad), f"{label}: output differs from the reference for {bad}")


def experiment_pair(bench: Bench, ids, full, expected, warm_passes=1, trace=False):
    """A cold pass on an empty store, then warm passes on the store it filled."""
    store = bench.path("store")
    try:
        cold = experiment_pass(bench, ids, full, store, trace)
        warms = [experiment_pass(bench, ids, full, store, trace)
                 for _ in range(warm_passes)]
    finally:
        shutil.rmtree(store, ignore_errors=True)
    check_pass(bench, "cold pass", cold, expected)
    for warm in warms:
        check_pass(bench, "warm pass", warm, expected)
    return cold, warms


def run_experiments_workload(bench: Bench, ids, full, expected, tail_q):
    if not bench.args.trace:
        pairs = []
        while bench.measuring(len(pairs)):
            pairs.append(experiment_pair(bench, ids, full, expected,
                                         1 if bench.args.smoke else WARM_PASSES))
        colds = [cold for cold, _ in pairs]
        warms = [warm for _, ws in pairs for warm in ws]
        ops = [ms for cold in colds
               for ms in run_durations_ms(cold["spans"], Speed(cold["bursts"]))]
        return {
            "setup_s": statistics.median(
                cold["setup_s"] + warm["setup_s"] for cold, ws in pairs for warm in ws),
            "peak_rss_mb": max(r["rss_mb"] for r in colds + warms),
            "job_s": statistics.median(map(ref_s, colds)),
            "warm_job_s": statistics.median(map(ref_s, warms)),
            "op_ms_p50": percentile(ops, 0.50),
            "op_ms_tail": percentile(ops, tail_q),
        }, None
    plain = experiment_pair(bench, ids, full, expected)
    cold, (warm,) = experiment_pair(bench, ids, full, expected, trace=True)
    summed = merge([
        summarize(cold["spans"], (cold["t_first"], cold["t_end"]), True),
        summarize(warm["spans"], (warm["t_first"], warm["t_end"])),
    ])
    summed["traced_wall_s"] = sum(r["t_end"] - r["t_first"] for r in (cold, warm))
    overhead = (ref_s(cold) + ref_s(warm)) / (ref_s(plain[0]) + ref_s(plain[1][0])) - 1
    metrics = finish(summed, {"trace_overhead": overhead})
    trace = chrome_trace([("cold pass", cold["spans"]), ("warm pass", warm["spans"])])
    return metrics, trace


def regen(bench: Bench):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    ids = ["table1", "fig9"] if bench.args.smoke else sorted(golden)
    expected = {eid: digest(golden[eid]) for eid in ids}
    return run_experiments_workload(bench, ids, False, expected, 0.99)


def spmv_full(bench: Bench):
    if bench.args.smoke:  # the fast-mode entry of the golden dump
        with open(GOLDEN, encoding="utf-8") as fh:
            expected = {"spmv_overlap": digest(json.load(fh)["spmv_overlap"])}
    else:
        with open(PINS, encoding="utf-8") as fh:
            expected = {"spmv_overlap": json.load(fh)["spmv_overlap_full"]}
    return run_experiments_workload(bench, ["spmv_overlap"], not bench.args.smoke,
                                    expected, 0.95)


# -- serve_mix: daemon rounds --------------------------------------------------
def serve_round(bench: Bench, plan: Path, template: Path, trace: bool):
    store = bench.path("store")
    shutil.copytree(template, store)
    ready, dout, cout = (bench.path(s) for s in ("ready.json", "daemon.json",
                                                  "client.json"))
    core = ["--core", str(min(os.sched_getaffinity(0)))]
    argv = [sys.executable, str(HERE / "serve_daemon.py"), "--store", str(store),
            "--ready", str(ready), "--out", str(dout)] + ["--trace"] * trace + core
    with open(bench.path("daemon-log"), "wb") as log:
        t_spawn = CLOCK()
        daemon = subprocess.Popen(argv, cwd=ROOT, env=bench.env,
                                  stdout=subprocess.DEVNULL, stderr=log)
        try:
            while not ready.exists():
                if daemon.poll() is not None:
                    raise ChildFailed(f"serve daemon exited {daemon.returncode}")
                if CLOCK() - t_spawn > 60:
                    raise ChildFailed("serve daemon never became ready")
                time.sleep(0.002)
            t_ready = CLOCK()
            with open(ready, encoding="utf-8") as fh:
                port = json.load(fh)["port"]
            c_spawn = bench.child("serve_client.py", [
                "--plan", str(plan), "--port", str(port), "--out", str(cout)]
                + ["--corrupt"] * bench.args.corrupt + core)
        finally:
            if daemon.poll() is None:
                daemon.send_signal(signal.SIGTERM)
            try:
                daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()
            shutil.rmtree(store, ignore_errors=True)
    with open(cout, encoding="utf-8") as fh:
        rec = json.load(fh)
    with open(dout, encoding="utf-8") as fh:
        rec["daemon"] = json.load(fh)
    rec["setup_s"] = (Speed(rec["daemon"]["bursts"]).interval(t_spawn, t_ready)
                      + Speed(rec["bursts"]).interval(c_spawn, rec["t_first"]))
    bench.attempted += rec["attempted"]
    if rec["errors"]:
        bench.fail(rec["errors"], f"{rec['errors']} queries answered with an error")
    if rec["mismatches"]:
        bench.fail(rec["mismatches"],
                   f"{rec['mismatches']} sampled answers differ from direct runs")
    return rec


def rtt_ms(rtts, speed: Speed) -> List[float]:
    """Reference ms per round trip."""
    return [speed.point(t0, t1) * 1e3 for t0, t1 in rtts]


def serve_mix(bench: Bench):
    plan, template = bench.path("plan.json"), bench.path("template")
    bench.child("serve_client.py", ["--prep", str(template), "--plan", str(plan),
                                    "--seed", str(bench.args.seed)]
                + ["--smoke"] * bench.args.smoke)
    rounds = []
    if not bench.args.trace:
        while bench.measuring(len(rounds), minimum=2 - bench.args.smoke):
            rounds.append(serve_round(bench, plan, template, False))
        ops = [ms for r in rounds
               for ms in rtt_ms(r["cold_rtts"], Speed(r["bursts"]))]
        return {
            "setup_s": statistics.median(r["setup_s"] for r in rounds),
            "peak_rss_mb": max(max(r["rss_mb"], r["daemon"]["rss_mb"])
                               for r in rounds),
            "job_s": statistics.median(
                Speed(r["bursts"]).interval(r["t_first"], r["t_mid"]) for r in rounds),
            "warm_job_s": statistics.median(
                Speed(r["bursts"]).interval(r["t_mid"], r["t_end"]) for r in rounds),
            "op_ms_p50": percentile(ops, 0.50),
            "op_ms_tail": percentile(ops, 0.99),
        }, None
    plain = serve_round(bench, plan, template, False)
    rec = serve_round(bench, plan, template, True)
    spans = rec["daemon"]["spans"]
    rtts = rec["cold_rtts"] + rec["warm_rtts"]
    handle = handle_spans(spans)
    wire = handle_total = 0.0
    for qid, (t0, t1) in enumerate(rtts):
        if qid in handle:
            wire += (t1 - t0) - handle[qid]
            handle_total += handle[qid]
    summed = summarize(spans, (rec["t_first"], rec["t_end"]))
    summed["serve.wire_s"] = wire
    summed["serve.handle_self_s"] = handle_total - summed["roots_s"]
    summed["traced_wall_s"] = sum(t1 - t0 for t0, t1 in rtts)
    speed = Speed(rec["bursts"])
    cold_ms = rtt_ms(rec["cold_rtts"], speed)
    counters = rec["counters"]

    def wall(r):
        return Speed(r["bursts"]).interval(r["t_first"], r["t_end"])

    metrics = finish(summed, {
        "serve.memo_hits": counters.get("warm_memo_hits", 0),
        "serve.store_hits": counters.get("warm_cache_hits", 0),
        "serve.simulated": counters.get("admitted", 0),
        "serve.busy": counters.get("rejected_busy", 0),
        "serve.qps": len(cold_ms) / speed.interval(rec["t_first"], rec["t_mid"]),
        "serve.rtt_p50_ms": percentile(cold_ms, 0.50),
        "serve.rtt_p99_ms": percentile(cold_ms, 0.99),
        "serve.cold_p50_ms": percentile(
            [ms for ms, tier in zip(cold_ms, rec["tiers"]) if tier == "cold"], 0.50),
        "trace_overhead": wall(rec) / wall(plain) - 1,
    })
    return metrics, chrome_trace([("serve daemon", spans)])


WORKLOADS = {"regen": regen, "spmv_full": spmv_full, "serve_mix": serve_mix}


# -- entry point ----------------------------------------------------------------
def report(bench: Bench, metrics: Dict[str, float], trace_doc) -> Dict[str, Any]:
    units = dict(END_TO_END) if not bench.args.trace else {
        name: unit for name, unit, _better in PER_LAYER}
    for name, unit in units.items():
        print(f"{name:<34}{metrics[name]:>16.6g} {unit}")
    if trace_doc is not None:
        print(layer_table(metrics))
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        path = traces / f"{bench.args.workload}-seed{bench.args.seed}.json"
        write_json(str(path), trace_doc)
        print(f"chrome trace: {path.relative_to(ROOT)}")
        if metrics["coverage"] < 0.95:
            bench.fail(1, f"layers explain only {metrics['coverage']:.1%} of traced wall")
    print(f"{'fail_ratio':<34}{bench.failed / max(1, bench.attempted):>16.6g} ratio")
    for note in bench.notes:
        print(f"FAILED: {note}")
    return {
        "correct": bench.failed == 0,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, one unit")
    ap.add_argument("--corrupt", action="store_true",
                    help="nudge one result by one ulp (the gate must trip)")
    args = ap.parse_args(argv)
    missing = [p for p in (ROOT / "src" / "repro" / "__init__.py", GOLDEN, PINS)
               if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run it from "
              "the root of a full checkout", file=sys.stderr)
        return 2

    bench = Bench(args)
    try:
        metrics, trace_doc = WORKLOADS[args.workload](bench)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    result = report(bench, metrics, trace_doc)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
