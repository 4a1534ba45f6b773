"""The closed-form mirror backend against the event-chained one it replaced.

:class:`EventChainedMirrorComm` below is the previous ``MirrorComm``, kept
verbatim as the reference: every transfer ran as a chain of engine slots
(latency, then wire, then a completion event) and every call charged its
host overhead through its own ``Timeout``. Swapped into the runner, it must
give bit-equal ``elapsed_s``, ``phases`` and ``comm_stats`` and the same
multiset of traced intervals as the closed form, on every machine family,
MPI implementation, progress model, noise and tracing mode the mirror runs.

The wake-up tests pin the point of the closed form: a batched post or wait
costs the calling process one engine event, whatever the batch size.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import replace
from typing import Any, Dict, Optional

import pytest

import repro.core.runner as runner
from repro.core.config import RunConfig
from repro.des import Environment, Event, SimulationError
from repro.machines import A100_SXM, EFA_CLOUD, JAGUARPF, MILAN_SS11, YONA
from repro.machines.spec import ProgressModel
from repro.perturb import NoiseSpec
from repro.simmpi import MirrorComm, MirrorProfile
from repro.simmpi.api import RankComm, Request


# -- the reference: the event-chained mirror ----------------------------------

class _RefXfer:
    __slots__ = ("tag", "nbytes", "send_posted", "recv_posted", "bg_done", "fg_done",
                 "fg_started", "eager", "local")

    def __init__(self, tag: int, env: Environment):
        self.tag = tag
        self.nbytes = 0
        self.send_posted = False
        self.recv_posted = False
        self.bg_done: Event = env.event()
        self.fg_done: Optional[Event] = None
        self.fg_started = False
        self.eager = False
        self.local = False


class EventChainedMirrorComm(RankComm):
    """The pre-closed-form mirror communicator (reference only)."""

    def __init__(self, env: Environment, profile: MirrorProfile):
        self.env = env
        self.profile = profile
        self.rank = profile.representative_rank
        self.nranks = profile.nranks
        self._open: Dict[int, deque] = {}
        self.tracer = None
        self.perturb = None
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0

    def _overhead(self):
        return self.env.timeout(self.profile.interconnect.per_message_cpu_us * 1e-6)

    def _wire_rate(self, xfer: _RefXfer) -> float:
        if xfer.local:
            return self.profile.node.memcpy_bandwidth_gbs * 1e9
        share = self.profile.nic_share(xfer.tag)
        npn = self.profile.interconnect.nics_per_node
        if npn > 1:
            share = max(1.0, share / npn)
        return self.profile.interconnect.bandwidth_bps / share

    def _maybe_start_background(self, xfer: _RefXfer) -> None:
        ic = self.profile.interconnect
        if xfer.local:
            ready = xfer.send_posted
            frac = 1.0
            lat = 0.5e-6
        elif xfer.eager:
            ready = xfer.send_posted
            frac = ic.background_fraction(eager=True)
            lat = ic.latency_s
        else:
            ready = xfer.send_posted and xfer.recv_posted
            frac = ic.background_fraction(eager=False)
            lat = 2.0 * ic.latency_s
        if not ready or xfer.bg_done.triggered:
            return
        wire_mult = 1.0
        perturb = self.perturb
        if perturb is not None and not xfer.local:
            lat = lat * perturb.latency_factor(self.rank) + perturb.message_delay(
                self.rank, self.env.now
            )
            wire_mult = perturb.wire_factor(self.rank)
        tracer = self.tracer
        if tracer is not None:
            start = self.env.now
            lane = (
                "mpi"
                if xfer.local or ic.progress is ProgressModel.MANUAL_POLL
                else "progress"
            )
            xfer.bg_done.callbacks.append(
                lambda _ev, s=start, x=xfer, lane=lane: tracer.record(
                    lane, f"bg t{x.tag}", s, self.env.now,
                    group=self.rank, cat="comm",
                    args={"tag": x.tag, "nbytes": x.nbytes,
                          "stage": "background"},
                )
            )
        if frac > 0:
            def after_latency(_a, *, xfer=xfer, frac=frac, mult=wire_mult):
                self.env.schedule(
                    frac * xfer.nbytes * mult / self._wire_rate(xfer),
                    xfer.bg_done.succeed,
                )

            self.env.schedule(lat, after_latency)
        else:
            self.env.schedule(lat, xfer.bg_done.succeed)

    def _ensure_foreground(self, xfer: _RefXfer) -> Event:
        if xfer.fg_done is None:
            xfer.fg_done = self.env.event()
        if not xfer.fg_started:
            xfer.fg_started = True
            bg_frac = self.profile.interconnect.background_fraction(xfer.eager)
            remainder = (1.0 - bg_frac) * xfer.nbytes
            if self.perturb is not None and not xfer.local and remainder > 0:
                remainder *= self.perturb.wire_factor(self.rank)
            done = xfer.fg_done
            tracer = self.tracer
            if tracer is not None and remainder > 0:
                start = self.env.now
                done.callbacks.append(
                    lambda _ev, s=start, x=xfer: tracer.record(
                        "mpi", f"fg t{x.tag}", s, self.env.now,
                        group=self.rank, cat="comm",
                        args={"tag": x.tag, "nbytes": x.nbytes,
                              "stage": "foreground"},
                    )
                )
            if remainder > 0:
                self.env.schedule(remainder / self._wire_rate(xfer), done.succeed)
            else:
                done.succeed()
        return xfer.fg_done

    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        if payload is not None:
            raise ValueError("mirror backend cannot carry functional payloads")
        yield self._overhead()
        xfer = self._claim(tag, "send")
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "isend", self.env.now, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.nbytes = nbytes
        xfer.eager = nbytes <= self.profile.interconnect.eager_threshold_bytes
        xfer.local = not self.profile.is_offnode(tag)
        xfer.send_posted = True
        self._maybe_start_background(xfer)
        return Request("send", self.rank, dst, tag, nbytes, _xfer=xfer)

    def irecv(self, src: int, tag: int, nbytes: int):
        yield self._overhead()
        xfer = self._claim(tag, "recv")
        self.messages_received += 1
        self.bytes_received += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "irecv", self.env.now, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.recv_posted = True
        if xfer.send_posted:
            self._maybe_start_background(xfer)
        return Request("recv", self.rank, src, tag, nbytes, _xfer=xfer)

    def _claim(self, tag: int, side: str) -> _RefXfer:
        q = self._open.setdefault(tag, deque())
        while q and q[0].send_posted and q[0].recv_posted:
            q.popleft()
        attr = "send_posted" if side == "send" else "recv_posted"
        for xfer in q:
            if not getattr(xfer, attr):
                return xfer
        xfer = _RefXfer(tag, self.env)
        q.append(xfer)
        return xfer

    def wait(self, request: Request):
        if request.completed:
            return None
        xfer: _RefXfer = request._xfer
        if xfer.eager and not xfer.local and request.kind == "send":
            request.completed = True
            return None
        if not xfer.bg_done.processed:
            yield xfer.bg_done
        if not xfer.local:
            yield self._ensure_foreground(xfer)
        if (xfer.local or xfer.eager) and request.kind == "recv":
            rate = self.profile.node.memcpy_bandwidth_gbs * 1e9
            yield self.env.timeout(xfer.nbytes / rate)
        request.completed = True
        return None

    def barrier(self):
        t_enter = self.env.now
        ic = self.profile.interconnect
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(rounds * (ic.latency_s + ic.per_message_cpu_us * 1e-6))
        if self.tracer is not None:
            self.tracer.record(
                "mpi-sync", "barrier", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )

    def allreduce_max(self, value: float):
        t_enter = self.env.now
        ic = self.profile.interconnect
        rounds = max(1, math.ceil(math.log2(max(2, self.nranks))))
        yield self.env.timeout(2 * rounds * (ic.latency_s + ic.per_message_cpu_us * 1e-6))
        if self.tracer is not None:
            self.tracer.record(
                "mpi-sync", "allreduce", t_enter, self.env.now,
                group=self.rank, cat="sync",
            )
        return value


# -- differential runs ----------------------------------------------------------

ADVECTION_MPI = ("bulk", "nonblocking", "thread_overlap", "bulk_direct")
ADVECTION_GPU_MPI = ("gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap")
SPMV = ("bulk", "nonblocking", "hybrid_overlap")
SPMV_PARAMS = (("rows", 1 << 14), ("band", 16), ("extras", 3))
PROGRESS = tuple(ProgressModel)

#: (machine, [(cores, threads), ...]): a rendezvous-sized and an eager-sized
#: halo per machine, always more than one node so both on-node and off-node
#: transfers occur. EFA-Cloud and A100-SXM have several NICs per node.
MACHINES = {
    "jaguarpf": (JAGUARPF, [(48, 6), (6144, 1)]),
    "yona": (YONA, [(48, 6), (192, 2)]),
    "a100-sxm": (A100_SXM, [(256, 16), (4096, 8)]),
    "efa-cloud": (EFA_CLOUD, [(192, 12), (3072, 4)]),
    "milan": (MILAN_SS11, [(512, 16), (8192, 4)]),
}


def _with_progress(machine, model):
    return replace(machine, interconnect=replace(machine.interconnect, progress=model))


def _intervals(result):
    if result.tracer is None:
        return None
    return sorted(
        (e.lane, e.name, e.start, e.end, e.group, e.cat,
         repr(sorted((e.args or {}).items())))
        for e in result.tracer.events
    )


def _assert_same(cfg, monkeypatch):
    new = runner.run(cfg)
    with monkeypatch.context() as m:
        m.setattr(runner, "MirrorComm", EventChainedMirrorComm)
        ref = runner.run(cfg)
    assert new.elapsed_s == ref.elapsed_s
    assert new.phases == ref.phases
    assert new.comm_stats == ref.comm_stats
    assert _intervals(new) == _intervals(ref)
    assert new.overlap == ref.overlap


def _configs(workload, impls, **extra):
    for key, (machine, points) in MACHINES.items():
        for impl in impls:
            if workload == "advection" and impl in ADVECTION_GPU_MPI and machine.gpu is None:
                continue
            if workload == "spmv" and impl == "hybrid_overlap" and machine.gpu is None:
                continue
            for model in PROGRESS:
                for cores, threads in points:
                    yield pytest.param(
                        RunConfig(
                            machine=_with_progress(machine, model),
                            implementation=impl, cores=cores,
                            threads_per_task=threads, workload=workload,
                            workload_params=SPMV_PARAMS if workload == "spmv" else (),
                            **extra,
                        ),
                        id=f"{key}-{impl}-{model.value}-{cores}x{threads}",
                    )


class TestAgainstEventChained:
    @pytest.mark.parametrize(
        "cfg", list(_configs("advection", ADVECTION_MPI + ADVECTION_GPU_MPI))
    )
    def test_advection(self, cfg, monkeypatch):
        _assert_same(cfg, monkeypatch)

    @pytest.mark.parametrize("cfg", list(_configs("spmv", SPMV)))
    def test_spmv(self, cfg, monkeypatch):
        _assert_same(cfg, monkeypatch)

    @pytest.mark.parametrize("key", sorted(MACHINES))
    def test_noise_medium(self, key, monkeypatch):
        machine, points = MACHINES[key]
        cores, threads = points[0]
        impls = ["nonblocking", "bulk_direct"]
        if machine.gpu is not None:
            impls.append("hybrid_overlap")
        for impl in impls:
            _assert_same(
                RunConfig(machine=machine, implementation=impl, cores=cores,
                          threads_per_task=threads, steps=4, seed=7,
                          noise=NoiseSpec.preset("medium")),
                monkeypatch,
            )
        _assert_same(
            RunConfig(machine=machine, implementation="nonblocking", cores=cores,
                      threads_per_task=threads, seed=7,
                      noise=NoiseSpec.preset("medium"), workload="spmv",
                      workload_params=SPMV_PARAMS),
            monkeypatch,
        )

    @pytest.mark.parametrize("key", sorted(MACHINES))
    def test_traced(self, key, monkeypatch):
        machine, points = MACHINES[key]
        for cores, threads in points:
            for impl in ("nonblocking", "bulk_direct"):
                _assert_same(
                    RunConfig(machine=machine, implementation=impl, cores=cores,
                              threads_per_task=threads, trace=True),
                    monkeypatch,
                )
            if machine.gpu is not None:
                _assert_same(
                    RunConfig(machine=machine, implementation="hybrid_overlap",
                              cores=cores, threads_per_task=threads, trace=True),
                    monkeypatch,
                )
            _assert_same(
                RunConfig(machine=machine, implementation="bulk", cores=cores,
                          threads_per_task=threads, trace=True, workload="spmv",
                          workload_params=SPMV_PARAMS),
                monkeypatch,
            )

    def test_traced_noisy_progress_offload(self, monkeypatch):
        """Tracer, perturbation and a non-default progress model at once."""
        machine = _with_progress(JAGUARPF, ProgressModel.HARDWARE_OFFLOAD)
        _assert_same(
            RunConfig(machine=machine, implementation="nonblocking", cores=48,
                      threads_per_task=6, trace=True, seed=3,
                      noise=NoiseSpec.preset("high")),
            monkeypatch,
        )


# -- wake-up bound ------------------------------------------------------------------

PEERS = 64


def _plan_comm(comm_cls=MirrorComm, machine=JAGUARPF):
    """A communicator whose 64 peer tags mix on-node/off-node and eager/rendezvous."""
    offnode = {tag: tag % 3 != 0 for tag in range(PEERS)}
    share = {tag: 1.0 + tag % 5 for tag in range(PEERS)}
    profile = MirrorProfile(
        interconnect=machine.interconnect, node=machine.node, nranks=4096,
        tasks_per_node=12, offnode_by_tag=offnode, nic_share_by_tag=share,
    )
    env = Environment()
    return env, comm_cls(env, profile)


def _plan():
    threshold = JAGUARPF.interconnect.eager_threshold_bytes
    return [(tag, threshold // 2 if tag % 2 else 8 * threshold + 8 * tag)
            for tag in range(PEERS)]


class _Counted:
    """Drives a comm call, counting the events it yields to the engine."""

    def __init__(self, gen):
        self.gen = gen
        self.yields = 0

    def drive(self):
        self.yields = 0
        result = None
        try:
            ev = next(self.gen)
            while True:
                self.yields += 1
                result = yield ev
                ev = self.gen.send(result)
        except StopIteration as stop:
            return stop.value


class TestWakeups:
    def _batched(self):
        env, comm = _plan_comm()
        plan = _plan()
        counts = {}

        def program():
            for _ in range(3):  # several steps: FIFO pairing across steps
                c = _Counted(comm.irecv_all([(1, tag, n) for tag, n in plan]))
                recvs = yield from c.drive()
                counts.setdefault("irecv_all", []).append(c.yields)
                yield env.timeout(1e-4)
                c = _Counted(comm.isend_all([(2, tag, n, None) for tag, n in plan]))
                sends = yield from c.drive()
                counts.setdefault("isend_all", []).append(c.yields)
                c = _Counted(comm.waitall(recvs + sends))
                yield from c.drive()
                counts.setdefault("waitall", []).append(c.yields)
            return env.now

        return env.run(until=env.process(program())), counts, comm

    def _looped(self, comm_cls):
        env, comm = _plan_comm(comm_cls)
        plan = _plan()

        def program():
            for _ in range(3):
                recvs = []
                for tag, n in plan:
                    recvs.append((yield from comm.irecv(1, tag, n)))
                yield env.timeout(1e-4)
                sends = []
                for tag, n in plan:
                    sends.append((yield from comm.isend(2, tag, n)))
                for req in recvs + sends:
                    yield from comm.wait(req)
            return env.now

        return env.run(until=env.process(program())), comm

    def test_each_batch_is_one_wakeup(self):
        _, counts, _ = self._batched()
        for name, seen in counts.items():
            assert seen and all(n <= 1 for n in seen), (name, seen)

    def test_batched_clock_equals_per_call_loop(self):
        t_batched, _, comm = self._batched()
        t_loop, loop_comm = self._looped(MirrorComm)
        t_ref, ref_comm = self._looped(EventChainedMirrorComm)
        assert t_batched == t_loop == t_ref
        for c in (loop_comm, ref_comm):
            assert (c.messages_sent, c.bytes_sent, c.messages_received,
                    c.bytes_received) == (comm.messages_sent, comm.bytes_sent,
                                          comm.messages_received,
                                          comm.bytes_received)

    def test_single_calls_yield_at_most_one_event(self):
        env, comm = _plan_comm()
        yields = []

        def program():
            for tag, n in _plan():
                c = _Counted(comm.irecv(1, tag, n))
                r = yield from c.drive()
                yields.append(c.yields)
                c = _Counted(comm.isend(2, tag, n))
                s = yield from c.drive()
                yields.append(c.yields)
                for req in (r, s, r):  # the repeat returns at once
                    c = _Counted(comm.wait(req))
                    yield from c.drive()
                    yields.append(c.yields)

        env.process(program())
        env.run()
        assert max(yields) == 1
        assert yields[-1] == 0


# -- a wait that can never complete -------------------------------------------------

class TestUnmatchedWait:
    def _comm(self):
        profile = MirrorProfile(
            interconnect=JAGUARPF.interconnect, node=JAGUARPF.node, nranks=64,
            tasks_per_node=1,
        )
        env = Environment()
        return env, MirrorComm(env, profile)

    def test_rendezvous_recv_without_own_send_raises_at_the_wait(self):
        env, comm = self._comm()
        tag = 5
        reached = []

        def program():
            req = yield from comm.irecv(3, tag, 10_000_000)
            reached.append(env.now)
            yield from comm.wait(req)
            reached.append("past the wait")

        env.process(program())
        with pytest.raises(SimulationError, match=rf"tag {tag}\b"):
            env.run()
        assert len(reached) == 1

    def test_rendezvous_send_without_own_recv_raises(self):
        env, comm = self._comm()

        def program():
            req = yield from comm.isend(3, 9, 10_000_000)
            yield from comm.waitall([req])

        env.process(program())
        with pytest.raises(SimulationError, match=r"tag 9\b.*receive"):
            env.run()

    def test_runner_surfaces_the_typed_error(self, monkeypatch):
        """The run fails with the wait's error, not "a rank never finished"."""

        class DropsSends(MirrorComm):
            def isend(self, dst, tag, nbytes, payload=None):
                # Never posts the send; the first receive wait must fail.
                return Request("send", self.rank, dst, tag, nbytes)
                yield  # a generator, like every comm call

        monkeypatch.setattr(runner, "MirrorComm", DropsSends)
        cfg = RunConfig(machine=JAGUARPF, implementation="nonblocking", cores=48,
                        threads_per_task=6)
        with pytest.raises(SimulationError, match="never posted"):
            runner.run(cfg)
