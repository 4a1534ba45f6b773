"""Outside-in span ledger: wall-time spans around the program's public layer calls.

The benchmark never edits the program. It replaces a few public functions
and methods with thin wrappers that record one span per call (name, start,
end, enclosing span) into per-thread lists held in memory; the process
dumps them once when it ends. Two depths:

* ``timer`` (tracing off): only ``repro.core.runner.run`` and
  ``Environment.run``, enough to time each simulated run for the
  end-to-end per-op percentiles, plus a speed-calibration burst between
  runs (see ``CAL_LOOP``);
* ``full`` (tracing on): every layer boundary below.

=================================  ==============================
wrapped call                       span name (layer = first word)
=================================  ==============================
``repro.cache.config_key``         ``cache.key``
``RunCache.get`` / ``put``         ``cache.get`` / ``cache.put``
``<W>Workload.validate`` etc.      ``workloads.<w>.<method>``
``Environment.run``                ``des.env_run``
``repro.core.runner.run``          ``core.run``
``experiments.run_experiment``     ``experiments.run``
``Scheduler.map``                  ``sched.map``
``SimulationService.handle``       ``serve.handle`` (async root)
=================================  ==============================

A span's self time is its duration minus the durations of its direct
children on the same thread. ``serve.handle`` runs as a coroutine, so it
is recorded as an *async root* (parent ``-2``): it never encloses other
spans on the thread stack, and its self time is computed in aggregate as
the handle total minus every synchronous root span the requests caused.

This module imports nothing from the program at import time, so the
benchmark's parent process can use the analysis half with only the
standard library.
"""

from __future__ import annotations

import bisect
import functools
import json
import math
import statistics
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: One clock for every process: CLOCK_MONOTONIC is system-wide on Linux,
#: so stamps taken in the parent, a client and a daemon compare directly.
CLOCK = time.monotonic

#: Parent index of a root span and of an async root span.
ROOT, ASYNC_ROOT = -1, -2

#: Speed calibration: a fixed pure-Python burst (``CAL_LOOP`` iterations,
#: about ``CAL_REF_S`` on an uncontended core of a 2-core Xeon VM),
#: timed between units of work at least ``CAL_EVERY_S`` apart. On a shared
#: host a core's speed swings by up to half within seconds (another
#: tenant's work on its hyperthread sibling); a burst on the same core
#: right next to the work swings with it, so wall time scaled by
#: ``CAL_REF_S / burst`` (reference seconds, see :class:`Speed`) is steadier.
CAL_LOOP = 20000
CAL_REF_S = 1.6e-3
CAL_EVERY_S = 0.1

#: Calibration bursts a benchmark process runs first thing, so its set-up
#: time (spawn to first timed operation) converts to reference seconds.
START_BURSTS = 2

#: Experiment ids, in the order ``experiment all`` runs them.
EXPERIMENT_IDS = (
    "convergence", "fig10", "fig11", "fig12", "fig2", "fig3", "fig4",
    "fig5", "fig6", "fig7", "fig8", "fig9", "future", "noise",
    "protocols", "sec5e", "sensitivity", "spmv_overlap", "table1",
    "table2", "text5b", "weak",
)

_WORKLOAD_METHODS = ("validate", "decompose", "make_data", "mirror_profile")
_WORKLOAD_KEYS = ("advection", "spmv")

#: Per-layer metrics of a traced run: (name, unit, better).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("cache.key_s", "s", "lower"),
    ("cache.key_calls", "count", "lower"),
    ("cache.get_s", "s", "lower"),
    ("cache.get_calls", "count", "lower"),
    ("cache.put_s", "s", "lower"),
    ("cache.put_calls", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    *(
        (f"workloads.{wl}.{m}_{kind}", unit, "lower")
        for wl in _WORKLOAD_KEYS
        for m in _WORKLOAD_METHODS
        for kind, unit in (("s", "s"), ("calls", "count"))
    ),
    ("des.env_run_s", "s", "lower"),
    ("des.runs", "count", "lower"),
    ("des.rank_steps", "count", "lower"),
    ("des.us_per_rank_step", "us", "lower"),
    ("core.run_self_s", "s", "lower"),
    ("core.run_calls", "count", "lower"),
    ("experiments.self_s", "s", "lower"),
    *((f"experiments.{eid}_s", "s", "lower") for eid in EXPERIMENT_IDS),
    ("sched.map_s", "s", "lower"),
    ("sched.map_calls", "count", "lower"),
    ("serve.wire_s", "s", "lower"),
    ("serve.handle_self_s", "s", "lower"),
    ("serve.memo_hits", "count", "higher"),
    ("serve.store_hits", "count", "higher"),
    ("serve.simulated", "count", "lower"),
    ("serve.busy", "count", "lower"),
    ("serve.qps", "1/s", "higher"),
    ("serve.rtt_p50_ms", "ms", "lower"),
    ("serve.rtt_p99_ms", "ms", "lower"),
    ("serve.cold_p50_ms", "ms", "lower"),
    ("sim.configs", "count", "lower"),
    ("sim.elapsed_sum_s", "s", "lower"),
    ("simmpi.messages", "count", "lower"),
    ("simmpi.bytes", "B", "lower"),
    ("traced_wall_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("coverage", "ratio", "higher"),
    ("trace_overhead", "ratio", "lower"),
)

#: Self-time metric of each span name (the layer table's rows).
_SELF_METRIC = {
    "cache.key": "cache.key_s",
    "cache.get": "cache.get_s",
    "cache.put": "cache.put_s",
    "des.env_run": "des.env_run_s",
    "core.run": "core.run_self_s",
    "experiments.run": "experiments.self_s",
    "sched.map": "sched.map_s",
    **{
        f"workloads.{wl}.{m}": f"workloads.{wl}.{m}_s"
        for wl in _WORKLOAD_KEYS
        for m in _WORKLOAD_METHODS
    },
}

#: Call-count metric of each span name.
_CALL_METRIC = {
    "cache.key": "cache.key_calls",
    "cache.get": "cache.get_calls",
    "cache.put": "cache.put_calls",
    "des.env_run": "des.runs",
    "core.run": "core.run_calls",
    "sched.map": "sched.map_calls",
    **{
        f"workloads.{wl}.{m}": f"workloads.{wl}.{m}_calls"
        for wl in _WORKLOAD_KEYS
        for m in _WORKLOAD_METHODS
    },
}

#: Metrics that are sums over a workload's processes (the rest are derived).
SUMMED = tuple(_SELF_METRIC.values()) + tuple(_CALL_METRIC.values()) + (
    "cache.hits", "des.rank_steps", "serve.wire_s", "serve.handle_self_s",
    "sim.configs", "sim.elapsed_sum_s", "simmpi.messages", "simmpi.bytes",
    "traced_wall_s", "attributed_s", "roots_s",
) + tuple(f"experiments.{eid}_s" for eid in EXPERIMENT_IDS)


# -- recording ---------------------------------------------------------------
class Ledger:
    """In-memory span recorder with one span list per thread.

    A span is ``[name, t0, t1, parent, arg]``; ``parent`` indexes the same
    thread's list (``ROOT``/``ASYNC_ROOT`` otherwise). Per-thread lists keep
    recording lock-free once a thread has registered.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[List[list]] = []
        #: ``[t0, t1]`` of every calibration burst, in time order
        self.bursts: List[List[float]] = []
        self._next_burst = 0.0

    def calibrate(self, count: int = 1) -> None:
        """Run ``count`` calibration bursts (see :data:`CAL_LOOP`)."""
        for _ in range(count):
            t0 = CLOCK()
            x = 0
            for i in range(CAL_LOOP):
                x += i * i % 7
            t1 = CLOCK()
            self.bursts.append([t0, t1])
        self._next_burst = t1 + CAL_EVERY_S

    def calibrating(self, fn: Callable) -> Callable:
        """``fn`` preceded by a calibration burst every :data:`CAL_EVERY_S`."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if CLOCK() >= self._next_burst:
                self.calibrate()
            return fn(*args, **kwargs)

        return wrapper

    def _slot(self) -> Tuple[List[list], List[int]]:
        slot = getattr(self._local, "slot", None)
        if slot is None:
            spans: List[list] = []
            slot = self._local.slot = (spans, [])
            with self._lock:
                self._threads.append(spans)
        return slot

    def wrap(self, name: str, fn: Callable,
             arg: Optional[Callable[[tuple, dict, Any], Any]] = None) -> Callable:
        """``fn`` recording one nested span per call.

        ``arg(args, kwargs, result)`` (evaluated after the call returns)
        attaches a JSON-able value to the span.
        """
        slot = self._slot

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = slot()
            rec = [name, CLOCK(), 0.0, stack[-1] if stack else ROOT, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = CLOCK()
                stack.pop()
            if arg is not None:
                rec[4] = arg(args, kwargs, result)
            return result

        return wrapper

    def wrap_async(self, name: str, fn: Callable,
                   arg: Callable[[tuple, dict], Any]) -> Callable:
        """Coroutine ``fn`` recording one async-root span per call."""
        slot = self._slot

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            spans, _stack = slot()
            rec = [name, CLOCK(), 0.0, ASYNC_ROOT, arg(args, kwargs)]
            spans.append(rec)
            try:
                return await fn(*args, **kwargs)
            finally:
                rec[2] = CLOCK()

        return wrapper

    def dump(self) -> List[List[list]]:
        """Every thread's spans (call once recording has stopped)."""
        with self._lock:
            return [list(spans) for spans in self._threads]


def _rebind(orig: Callable, wrapped: Callable) -> None:
    """Point every ``from x import f`` binding in the program at ``wrapped``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        namespace = getattr(mod, "__dict__", {})
        for attr, value in list(namespace.items()):
            if value is orig:
                setattr(mod, attr, wrapped)


def _patch(owner: Any, attr: str, wrapped_for: Callable[[Callable], Callable],
           rebind: bool = False) -> None:
    orig = getattr(owner, attr)
    wrapped = wrapped_for(orig)
    setattr(owner, attr, wrapped)
    if rebind:
        _rebind(orig, wrapped)


def _run_arg(args: tuple, kwargs: dict, result: Any) -> list:
    """Identity facts of one ``runner.run`` result, used only if it simulated."""
    cfg = result.config
    contexts = cfg.ntasks if cfg.network == "full" else 1
    stats = result.comm_stats or {}
    return [result.elapsed_s, int(stats.get("messages_sent", 0)),
            int(stats.get("bytes_sent", 0)), contexts * cfg.steps]


def install(ledger: Ledger, full: bool, serve: bool = False) -> None:
    """Wrap the program's layer calls (``full=False``: the two run timers)."""
    import repro.core.runner as runner
    from repro.des.engine import Environment

    if full:
        _patch(runner, "run", lambda f: ledger.wrap("core.run", f, _run_arg),
               rebind=True)
    else:  # bursts sit between runs, outside every span
        _patch(runner, "run", lambda f: ledger.calibrating(
            ledger.wrap("core.run", f, _run_arg)), rebind=True)
    _patch(Environment, "run", lambda f: ledger.wrap("des.env_run", f))
    if not full:
        return
    import repro.cache as cache
    import repro.experiments.common as common
    from repro.sched.scheduler import Scheduler
    from repro.workloads.advection import AdvectionWorkload
    from repro.workloads.spmv import SpmvWorkload

    if serve:
        import repro.serve.service  # noqa: F401  (binds config_key by name)
    _patch(cache, "config_key", lambda f: ledger.wrap("cache.key", f),
           rebind=True)
    _patch(cache.RunCache, "get", lambda f: ledger.wrap(
        "cache.get", f, lambda a, k, r: r is not None))
    _patch(cache.RunCache, "put", lambda f: ledger.wrap("cache.put", f))
    for cls in (AdvectionWorkload, SpmvWorkload):
        for method in _WORKLOAD_METHODS:
            _patch(cls, method, lambda f, n=f"workloads.{cls.key}.{method}":
                   ledger.wrap(n, f))
    _patch(common, "run_experiment", lambda f: ledger.wrap(
        "experiments.run", f, lambda a, k, r: a[0] if a else k.get("exp_id")),
        rebind=True)
    _patch(Scheduler, "map", lambda f: ledger.wrap("sched.map", f))
    if serve:
        from repro.serve.service import SimulationService

        def request_id(args: tuple, kwargs: dict) -> Any:
            doc = args[1] if len(args) > 1 else kwargs.get("doc")
            return doc.get("id") if isinstance(doc, dict) else None

        _patch(SimulationService, "handle",
               lambda f: ledger.wrap_async("serve.handle", f, request_id))


# -- analysis (standard library only) ----------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank ``q``-quantile (0 < q <= 1) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def _walk(threads: List[List[list]], keep_root: Callable[[list], bool]):
    """Yield ``(span, self_s, simulated)`` for kept roots and their subtrees.

    ``simulated`` is True for a ``core.run`` span with a ``des.env_run``
    child (a run that simulated instead of replaying the store).
    """
    for spans in threads:
        n = len(spans)
        child = [0.0] * n
        has_env = [False] * n
        kept = [False] * n
        for i, (name, t0, t1, parent, _arg) in enumerate(spans):
            if parent >= 0:
                kept[i] = kept[parent]
                child[parent] += t1 - t0
                if name == "des.env_run":
                    has_env[parent] = True
            elif parent == ROOT:
                kept[i] = keep_root(spans[i])
        for i, span in enumerate(spans):
            if kept[i]:
                yield span, (span[2] - span[1]) - child[i], has_env[i]


class Speed:
    """Reference-speed time from calibration bursts (``[t0, t1]`` pairs).

    Between two bursts the machine is taken to run at the speed the bursts
    around that gap measured (median of the two before and two after), so
    a wall interval counts ``wall * CAL_REF_S / burst`` reference seconds.
    Burst time itself is never counted.
    """

    def __init__(self, bursts: List[List[float]]):
        if len(bursts) < 2:
            raise ValueError("need calibration bursts on both sides of the work")
        self.starts = [b[0] for b in bursts]
        self.ends = [b[1] for b in bursts]
        durations = [t1 - t0 for t0, t1 in bursts]
        n = len(durations)
        # factor[k] scales the gap between burst k and burst k+1
        self.factor = [
            CAL_REF_S / statistics.median(durations[max(0, k - 1):min(n, k + 3)])
            for k in range(n - 1)
        ]

    def _gap(self, t: float) -> int:
        return min(max(bisect.bisect_right(self.starts, t) - 1, 0),
                   len(self.factor) - 1)

    def interval(self, a: float, b: float) -> float:
        """Reference seconds of the wall interval ``[a, b]``.

        Time before the first burst or after the last counts at the speed
        of the nearest gap.
        """
        total = 0.0
        if a < self.starts[0]:
            total += (min(b, self.starts[0]) - a) * self.factor[0]
        if b > self.ends[-1]:
            total += (b - max(a, self.ends[-1])) * self.factor[-1]
        for k in range(self._gap(a), len(self.factor)):
            lo, hi = max(a, self.ends[k]), min(b, self.starts[k + 1])
            if hi > lo:
                total += (hi - lo) * self.factor[k]
            if self.starts[k + 1] >= b:
                break
        return total

    def point(self, a: float, b: float) -> float:
        """Reference seconds of a short interval lying inside one gap."""
        return (b - a) * self.factor[self._gap(a)]


def run_durations_ms(threads: List[List[list]], speed: "Speed") -> List[float]:
    """Reference ms of every simulated ``runner.run`` call in a dump."""
    return [
        speed.point(span[1], span[2]) * 1e3
        for span, _self, simulated in _walk(threads, lambda s: True)
        if span[0] == "core.run" and simulated
    ]


def summarize(threads: List[List[list]], window: Tuple[float, float],
              record_experiments: bool = False) -> Dict[str, float]:
    """Summed per-layer figures of one process's spans inside ``window``.

    Only root spans starting inside the window (and their subtrees) count.
    ``serve.handle`` async roots are returned separately by
    :func:`handle_spans`; their aggregate self time is left to the caller.
    """
    lo, hi = window
    out: Dict[str, float] = {k: 0.0 for k in SUMMED}
    elapsed: List[float] = []
    for span, self_s, simulated in _walk(
            threads, lambda s: lo <= s[1] <= hi and s[0] != "serve.handle"):
        name, t0, t1, parent, arg = span
        metric = _SELF_METRIC.get(name)
        if metric is not None:
            out[metric] += self_s
            out["attributed_s"] += self_s
        calls = _CALL_METRIC.get(name)
        if calls is not None:
            out[calls] += 1
        if name == "cache.get" and arg:
            out["cache.hits"] += 1
        elif name == "experiments.run" and record_experiments and arg:
            key = f"experiments.{arg}_s"
            if key in out:
                out[key] += t1 - t0
        elif name == "core.run" and simulated and arg:
            out["sim.configs"] += 1
            elapsed.append(arg[0])
            out["simmpi.messages"] += arg[1]
            out["simmpi.bytes"] += arg[2]
            out["des.rank_steps"] += arg[3]
        if parent == ROOT:
            out["roots_s"] += t1 - t0
    out["sim.elapsed_sum_s"] = math.fsum(elapsed)
    return out


def handle_spans(threads: List[List[list]]) -> Dict[Any, float]:
    """Request id -> seconds inside ``SimulationService.handle``."""
    return {
        span[4]: span[2] - span[1]
        for spans in threads for span in spans
        if span[0] == "serve.handle" and span[3] == ASYNC_ROOT
    }


def merge(parts: Iterable[Dict[str, float]]) -> Dict[str, float]:
    """Sum per-process summaries (``sim.elapsed_sum_s`` with ``fsum``)."""
    parts = list(parts)
    out: Dict[str, float] = {}
    for key in {k for p in parts for k in p}:
        vals = [p.get(key, 0.0) for p in parts]
        out[key] = math.fsum(vals) if key == "sim.elapsed_sum_s" else sum(vals)
    return out


def finish(summed: Dict[str, float], extra: Dict[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from merged sums plus workload extras."""
    metrics = {name: 0.0 for name, _unit, _better in PER_LAYER}
    for key, value in summed.items():
        if key in metrics:
            metrics[key] = value
    metrics.update(extra)
    gets = summed.get("cache.get_calls", 0.0)
    metrics["cache.hit_ratio"] = summed.get("cache.hits", 0.0) / gets if gets else 0.0
    steps = summed.get("des.rank_steps", 0.0)
    metrics["des.us_per_rank_step"] = (
        summed.get("des.env_run_s", 0.0) / steps * 1e6 if steps else 0.0
    )
    wall = metrics["traced_wall_s"]
    attributed = summed.get("attributed_s", 0.0) + metrics["serve.wire_s"] \
        + metrics["serve.handle_self_s"]
    metrics["unattributed_s"] = wall - attributed
    metrics["coverage"] = attributed / wall if wall > 0 else 0.0
    for name, unit, _better in PER_LAYER:
        if unit in ("count", "B"):
            metrics[name] = int(metrics[name])
    return metrics


def layer_table(metrics: Dict[str, float]) -> str:
    """Per-layer self-time table of a traced run, as printable text."""
    wall = metrics["traced_wall_s"] or 1.0
    rows = [
        ("cache", metrics["cache.key_s"] + metrics["cache.get_s"]
         + metrics["cache.put_s"]),
        ("workloads", sum(metrics[f"workloads.{wl}.{m}_s"]
                          for wl in _WORKLOAD_KEYS for m in _WORKLOAD_METHODS)),
        ("des", metrics["des.env_run_s"]),
        ("core", metrics["core.run_self_s"]),
        ("experiments", metrics["experiments.self_s"]),
        ("sched", metrics["sched.map_s"]),
        ("serve", metrics["serve.wire_s"] + metrics["serve.handle_self_s"]),
        ("unattributed", metrics["unattributed_s"]),
    ]
    lines = [f"{'layer':<14}{'self s':>12}{'share':>9}"]
    lines += [f"{name:<14}{secs:>12.4f}{secs / wall:>9.1%}" for name, secs in rows]
    lines.append(f"{'traced wall':<14}{metrics['traced_wall_s']:>12.4f}")
    return "\n".join(lines)


def chrome_trace(processes: List[Tuple[str, List[List[list]]]]) -> Dict[str, Any]:
    """Spans of several processes as one Chrome-trace document.

    Same object form ``repro.obs.export.chrome_trace`` writes: complete
    ``"X"`` events with microsecond ``ts``/``dur``, a process per dump and
    a thread per recording thread, named through ``"M"`` metadata events.
    """
    events: List[Dict[str, Any]] = []
    for pid, (label, threads) in enumerate(processes):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for tid, spans in enumerate(threads):
            for name, t0, t1, _parent, arg in spans:
                entry = {"name": name, "cat": name.split(".", 1)[0],
                         "ph": "X", "pid": pid, "tid": tid,
                         "ts": t0 * 1e6, "dur": (t1 - t0) * 1e6}
                if arg is not None and not isinstance(arg, bool):
                    entry["args"] = {"arg": arg}
                events.append(entry)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_json(path: str, doc: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
