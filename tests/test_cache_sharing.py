"""A run-cache directory shared between processes and threads.

Every writer appends whole lines to the shard logs with one ``O_APPEND``
write; a reader that already indexed a log picks up what peers appended
later on its next miss.
"""

import hashlib
import json
import multiprocessing
import os
import sys
import threading

import pytest

from repro import cache as run_cache
from repro.cache import MODEL_VERSION, RunCache, _encode_line, config_key
from repro.core.config import RunConfig, RunResult
from repro.machines import LENS

SPAWN = multiprocessing.get_context("spawn")


@pytest.fixture(autouse=True)
def _no_ambient_cache():
    run_cache.configure(None)
    yield
    run_cache.configure(None)


def _cfg(steps=2):
    return RunConfig(machine=LENS, implementation="nonblocking", cores=4,
                     steps=steps, domain=(24, 24, 24))


def _result(cfg, i):
    return RunResult(config=cfg, elapsed_s=0.1 + i / 7,
                     phases={"compute": i / 3}, comm_stats={"messages": i})


def _put_one(directory, steps):
    cfg = _cfg(steps)
    RunCache(directory).put(cfg, _result(cfg, steps))


def _crafted_key(tag, i):
    """A cache key in shard ``ab`` (every writer shares one log)."""
    return "ab" + hashlib.sha256(f"{tag}-{i}".encode()).hexdigest()[2:]


def _put_many(directory, tag, n, start):
    # Route every key into one shard: RunCache.put resolves config_key
    # through the module, so the override applies to this process only.
    keys = iter([_crafted_key(tag, i) for i in range(n)])
    run_cache.config_key = lambda cfg, model_version=None: next(keys)
    cache = RunCache(directory)
    cfg = _cfg()
    start.wait()
    for i in range(n):
        cache.put(cfg, _result(cfg, i))


class TestPeerAppends:
    def test_loaded_shard_sees_a_later_peer_append(self, tmp_path):
        d = str(tmp_path / "c")
        cfg = _cfg(5)
        reader = RunCache(d)
        assert reader.get(cfg) is None  # indexes the (empty) shard
        peer = SPAWN.Process(target=_put_one, args=(d, 5))
        peer.start()
        peer.join(timeout=120)
        assert peer.exitcode == 0
        hit = reader.get(cfg)
        assert hit is not None
        assert hit.elapsed_s == _result(cfg, 5).elapsed_s
        assert hit.phases == {"compute": 5 / 3}
        assert hit.comm_stats == {"messages": 5}
        assert reader.stats() == {"hits": 1, "misses": 1, "stores": 0}

    def test_partial_last_line_waits_until_complete(self, tmp_path):
        d = str(tmp_path / "c")
        cfg = _cfg()
        key = config_key(cfg)
        reader = RunCache(d)
        assert not reader.has_key(key)
        line = _encode_line(key, {"elapsed_s": 0.5, "phases": {},
                                  "comm_stats": {}}, MODEL_VERSION)
        path = os.path.join(d, f"{key[:2]}.jsonl")
        with open(path, "ab") as fh:
            fh.write(line[:-9])
        assert not reader.has_key(key)
        assert reader.get(cfg) is None
        assert reader.tallies == {"torn": 0, "wrong_version": 0,
                                  "ill_shaped": 0}
        with open(path, "ab") as fh:
            fh.write(line[-9:])
        assert reader.has_key(key)
        assert reader.get(cfg).elapsed_s == 0.5
        assert reader.tallies == {"torn": 0, "wrong_version": 0,
                                  "ill_shaped": 0}

    def test_own_put_does_not_skip_a_peer_line(self, tmp_path):
        d = str(tmp_path / "c")
        ours, theirs = _cfg(2), _cfg(3)
        # Two configs in one shard: the peer's line lands between this
        # handle's indexed offset and its own append.
        while config_key(theirs)[:2] != config_key(ours)[:2]:
            theirs = theirs.with_(steps=theirs.steps + 1)
        cache = RunCache(d)
        assert cache.get(ours) is None
        _put_one(d, theirs.steps)
        cache.put(ours, _result(ours, 2))
        hit = cache.get(theirs)
        assert hit is not None and hit.comm_stats == {"messages": theirs.steps}

    def test_two_processes_append_to_one_shard(self, tmp_path):
        d = str(tmp_path / "c")
        n = 200
        start = SPAWN.Event()
        writers = [SPAWN.Process(target=_put_many, args=(d, tag, n, start))
                   for tag in ("a", "b")]
        for w in writers:
            w.start()
        start.set()
        for w in writers:
            w.join(timeout=120)
            assert w.exitcode == 0
        assert os.listdir(d) == ["ab.jsonl"]
        with open(os.path.join(d, "ab.jsonl"), "rb") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 2 * n
        docs = [json.loads(line) for line in lines]
        expect = {_crafted_key(tag, i) for tag in "ab" for i in range(n)}
        assert {doc["key"] for doc in docs} == expect
        cache = RunCache(d)
        assert len(cache) == 2 * n
        assert all(cache.has_key(k) for k in expect)
        assert cache.tallies["torn"] == 0

    def test_scheduler_short_circuit_sees_worker_puts(self, tmp_path):
        from repro.sched import Scheduler

        cfgs = [_cfg(steps) for steps in (2, 3, 4)]
        cache = run_cache.configure(str(tmp_path / "c"))
        with Scheduler(jobs=2) as sched:
            cold = sched.map(cfgs)
            assert sched.stats()["simulated"] == 3
        # The parent indexed these shards (its probes missed) before the
        # workers appended; a fresh scheduler must still short-circuit.
        assert cache.stats()["stores"] == 3  # merged worker counters
        with Scheduler(jobs=2) as sched:
            warm = sched.map([c.with_() for c in cfgs])
            s = sched.stats()
        assert s["cache_hits"] == 3 and s["simulated"] == 0
        assert [r.elapsed_s for r in warm] == [r.elapsed_s for r in cold]


class TestThreads:
    def test_concurrent_puts_and_gets(self, tmp_path):
        cache = RunCache(str(tmp_path / "c"))
        cfgs = [_cfg(steps) for steps in range(1, 41)]
        errors = []

        def work(part):
            try:
                for cfg in part:
                    cache.get(cfg)
                    cache.put(cfg, _result(cfg, cfg.steps))
                    assert cache.get(cfg).comm_stats == {"messages": cfg.steps}
            except Exception as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=work, args=(cfgs[i::4],))
                   for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(RunCache(cache.directory)) == len(cfgs)
