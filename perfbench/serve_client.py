"""The ``serve_mix`` load generator: one client process, closed loop.

``--prep`` (once per benchmark run) draws the seeded query plan and fills
a template store with the hot and store-tier configs by simulating them
directly, so each round's daemon finds them on disk but not in memory.

A round (one fresh daemon, one fresh client) then:

1. primes the hot set (each hot config once, so it lands in the memo);
2. asks the daemon's ``stats`` verb for its counters;
3. **cold round**: sends the plan's query sequence over ``CONNECTIONS``
   connections, each sending its next query only after its previous
   answer arrived (closed loop, no pipelining); every ``CHUNK`` queries
   the loop drains and runs a speed-calibration burst on the core it
   shares with the daemon;
4. **warm replay**: the same sequence again, now answered from memory;
5. reads ``stats`` again, then checks a seeded sample of cold-round
   answers against a direct ``repro.core.runner.run`` of the same config
   (``elapsed_s``, ``phases`` and ``comm_stats`` must be identical).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import selectors
import socket
import sys
from typing import Any, Dict, List

from ledger import CLOCK, START_BURSTS, Ledger, write_json

#: Concurrent connections: one per core of the 2-core machine it was sized on.
CONNECTIONS = 2

#: Store-tier share of the queries; the cold tier is one query per
#: problem shape (140, 3.5% of a round); the rest repeat the hot set.
STORE_SHARE = 0.12

#: Cold shapes in a smoke round.
SMOKE_COLD = 9

#: Queries per round and hot-set size (normal, smoke).
SIZES = {False: (4000, 16), True: (300, 8)}

#: Queries between two speed-calibration bursts (the loop drains first).
CHUNK = 250

#: Calibration bursts before and after each timed phase.
EDGE_BURSTS = 5

#: Sampled answers per tier checked against a direct run.
SAMPLE_PER_TIER = 4

#: Cheap advection configs the mix draws from (machine -> cores per node).
_MACHINES = (("lens", 16), ("jaguarpf", 12), ("hopper", 24))
_IMPLS = ("bulk", "nonblocking")
_NODES = (1, 2, 3, 4)
_DOMAINS = tuple(range(16, 44, 4))
_STEPS = tuple(range(2, 7))


def make_plan(seed: int, smoke: bool) -> Dict[str, Any]:
    """The seeded query plan: distinct configs per tier and the sequence.

    The cold tier holds one config per (nodes, domain, steps) shape, with
    machine and implementation cycling over the shapes, so every seed
    simulates the same work; the seed draws the hot and store tiers from
    the remaining grid and the query order.
    """
    queries, n_hot = SIZES[smoke]
    rng = random.Random(seed)
    shapes = [(n, d, s) for n in _NODES for d in _DOMAINS for s in _STEPS]
    if smoke:
        shapes = rng.sample(shapes, SMOKE_COLD)

    def config(machine: str, impl: str, shape) -> Dict[str, Any]:
        nodes, domain, steps = shape
        return {"machine": machine, "impl": impl,
                "cores": dict(_MACHINES)[machine] * nodes,
                "domain": domain, "steps": steps}

    combos = [(m, impl) for m, _ in _MACHINES for impl in _IMPLS]
    cold = [config(*combos[i % len(combos)], shape)
            for i, shape in enumerate(shapes)]
    rest = [config(m, impl, (n, d, s)) for m, _ in _MACHINES for impl in _IMPLS
            for n in _NODES for d in _DOMAINS for s in _STEPS]
    rest = [c for c in rest if c not in cold]
    rng.shuffle(rest)
    n_store = round(queries * STORE_SHARE)
    hot, store = rest[:n_hot], rest[n_hot:n_hot + n_store]
    sequence = (
        [["store", i] for i in range(n_store)]
        + [["cold", i] for i in range(len(cold))]
        + [["hot", rng.randrange(n_hot)]
           for _ in range(queries - n_store - len(cold))]
    )
    rng.shuffle(sequence)
    sample = []
    for tier in ("hot", "store", "cold"):
        positions = [i for i, (t, _) in enumerate(sequence) if t == tier]
        sample += rng.sample(positions, SAMPLE_PER_TIER)
    return {"hot": hot, "store": store, "cold": cold,
            "sequence": sequence, "sample": sorted(sample)}


def prep(plan: Dict[str, Any], template: str) -> None:
    """Simulate the hot and store-tier configs into the template store."""
    from repro import cache
    from repro.core.runner import run
    from repro.serve.protocol import config_from_dict

    cache.configure(template)
    for doc in plan["hot"] + plan["store"]:
        run(config_from_dict(doc))
    cache.configure(None)


class _Conn:
    """One NDJSON connection with at most one request in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""
        self.sent_at = 0.0
        self.pos = -1

    def send(self, doc: Dict[str, Any]) -> None:
        self.sent_at = CLOCK()
        self.sock.sendall((json.dumps(doc) + "\n").encode("utf-8"))

    def poll_line(self):
        """A complete response line if one has arrived, else None."""
        chunk = self.sock.recv(1 << 16)
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self.buf += chunk
        if b"\n" not in self.buf:
            return None
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def request(self, doc: Dict[str, Any]) -> Dict[str, Any]:
        self.send(doc)
        while True:
            line = self.poll_line()
            if line is not None:
                return json.loads(line)


def closed_loop(conns: List[_Conn], docs: List[Dict[str, Any]], id_base: int):
    """Send ``docs`` over every connection in a closed loop.

    Returns ``(rtts, answers)``: ``[[t0, t1]]`` per position and the
    decoded answers, both in sequence order.
    """
    sel = selectors.DefaultSelector()
    rtts: List[List[float]] = [[0.0, 0.0] for _ in docs]
    answers: List[Any] = [None] * len(docs)
    next_pos = 0

    def dispatch(conn: _Conn) -> None:
        nonlocal next_pos
        conn.pos = next_pos
        conn.send({"verb": "run", "id": id_base + next_pos,
                   "config": docs[next_pos]})
        next_pos += 1

    for conn in conns:
        sel.register(conn.sock, selectors.EVENT_READ, conn)
        if next_pos < len(docs):
            dispatch(conn)
    pending = min(len(conns), len(docs))
    try:
        while pending:
            events = sel.select(timeout=60)
            if not events:
                raise TimeoutError("no answer from the daemon for 60 s")
            for key, _mask in events:
                conn = key.data
                line = conn.poll_line()
                if line is None:
                    continue
                rtts[conn.pos] = [conn.sent_at, CLOCK()]
                answers[conn.pos] = json.loads(line)
                if next_pos < len(docs):
                    dispatch(conn)
                else:
                    pending -= 1
    finally:
        sel.close()
    return rtts, answers


def timed_phase(conns: List[_Conn], docs, id_base: int, ledger: Ledger):
    """:func:`closed_loop` in chunks, with a calibration burst after each."""
    rtts: List[List[float]] = []
    answers: List[Any] = []
    for start in range(0, len(docs), CHUNK):
        r, a = closed_loop(conns, docs[start:start + CHUNK], id_base + start)
        rtts += r
        answers += a
        ledger.calibrate()
    return rtts, answers


def counters(conn: _Conn) -> Dict[str, int]:
    """The daemon's service counters through its public ``stats`` verb."""
    return conn.request({"verb": "stats", "id": "stats"})["service"]["counters"]


def check_sample(plan, docs, answers, corrupt: bool) -> int:
    """Mismatches between sampled answers and direct runs of their configs."""
    from repro.core.runner import run
    from repro.serve.protocol import config_from_dict, result_to_dict

    mismatches = 0
    for n, pos in enumerate(plan["sample"]):
        answer = answers[pos]
        if not answer or not answer.get("ok"):
            mismatches += 1
            continue
        served = dict(answer["result"])
        if corrupt and n == 0:
            served["elapsed_s"] = math.nextafter(served["elapsed_s"], math.inf)
        direct = result_to_dict(run(config_from_dict(docs[pos])))
        if any(served.get(k) != direct[k] for k in direct):
            mismatches += 1
    return mismatches


def client_round(plan: Dict[str, Any], port: int, corrupt: bool,
                 ledger: Ledger) -> Dict[str, Any]:
    docs = [plan[tier][i] for tier, i in plan["sequence"]]
    conns = [_Conn(port) for _ in range(CONNECTIONS)]
    try:
        for i, doc in enumerate(plan["hot"]):
            conns[0].request({"verb": "run", "id": f"prime{i}", "config": doc})
        before = counters(conns[0])
        ledger.calibrate(EDGE_BURSTS)
        t_first = CLOCK()
        cold_rtts, answers = timed_phase(conns, docs, 0, ledger)
        t_mid = CLOCK()
        warm_rtts, warm_answers = timed_phase(conns, docs, len(docs), ledger)
        t_end = CLOCK()
        ledger.calibrate(EDGE_BURSTS)
        after = counters(conns[0])
    finally:
        for conn in conns:
            conn.sock.close()
    errors = sum(1 for a in answers + warm_answers if not (a and a.get("ok")))
    return {
        "t_first": t_first, "t_mid": t_mid, "t_end": t_end,
        "bursts": ledger.bursts,
        "tiers": [tier for tier, _ in plan["sequence"]],
        "cold_rtts": cold_rtts, "warm_rtts": warm_rtts,
        "attempted": 2 * len(docs) + len(plan["sample"]),
        "errors": errors,
        "mismatches": check_sample(plan, docs, answers, corrupt),
        "counters": {k: after.get(k, 0) - before.get(k, 0)
                     for k in set(before) | set(after)},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--plan", required=True, help="plan file (written by --prep)")
    ap.add_argument("--prep", metavar="TEMPLATE_STORE",
                    help="draw the plan and fill this template store")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--port", type=int)
    ap.add_argument("--out")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--core", type=int, help="pin to this CPU")
    args = ap.parse_args(argv)
    if args.core is not None:
        os.sched_setaffinity(0, {args.core})

    if args.prep:
        plan = make_plan(args.seed, args.smoke)
        prep(plan, args.prep)
        write_json(args.plan, plan)
        return 0
    ledger = Ledger()
    ledger.calibrate(START_BURSTS)
    with open(args.plan, encoding="utf-8") as fh:
        plan = json.load(fh)
    record = client_round(plan, args.port, args.corrupt, ledger)
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
