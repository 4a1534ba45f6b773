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
from repro.machines import A100_SXM, EFA_CLOUD, HOPPER, JAGUARPF, LENS, MILAN_SS11, YONA
from repro.machines.catalog import MACHINES as CATALOG_MACHINES
from repro.machines.spec import ProgressModel
from repro.obs.tracer import Tracer
from repro.perturb import NoiseSpec
from repro.perturb.model import Perturbation
import repro.simmpi.mirror as mirror_module
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


# -- batches as columns against the per-message fold ----------------------------

#: Every machine of the catalog (checked against it below).
CATALOG = (JAGUARPF, HOPPER, LENS, YONA, A100_SXM, MILAN_SS11, EFA_CLOUD)
#: Message mixes of a batch: on-node/off-node and eager/rendezvous, with a
#: zero-byte message in the mixed one.
MIXES = ("mixed", "onnode", "eager", "rendezvous")
#: Wait orders, one per step: one waitall over both sides either way round,
#: or one waitall per side either way round.
ORDERS = ("recvs+sends", "sends+recvs", "recvs,sends", "sends,recvs")
MODES = ("plain", "traced", "noise-high")
BATCH_TAGS = 24


class PerCallMirrorComm(MirrorComm):
    """The closed form with the batched calls as per-message loops."""

    irecv_all = RankComm.irecv_all
    isend_all = RankComm.isend_all
    waitall = RankComm.waitall


def test_catalog_is_covered():
    assert sorted(m.name for m in CATALOG) == sorted(
        {m.name for m in CATALOG_MACHINES.values()}
    )


def _mix_comm(comm_cls, machine, model, mix, mode):
    tags = range(BATCH_TAGS)
    machine = _with_progress(machine, model)
    profile = MirrorProfile(
        interconnect=machine.interconnect, node=machine.node, nranks=4096,
        tasks_per_node=12,
        offnode_by_tag={
            tag: tag % 3 != 0 if mix == "mixed" else mix != "onnode" for tag in tags
        },
        nic_share_by_tag={tag: 1.0 + tag % 5 for tag in tags},
    )
    env = Environment()
    comm = comm_cls(env, profile)
    if mode != "plain":
        comm.tracer = Tracer()
    if mode == "noise-high":
        comm.perturb = Perturbation(11, NoiseSpec.preset("high"))
        comm.perturb.tracer = comm.tracer
    return env, comm


def _mix_plan(machine, mix):
    threshold = machine.interconnect.eager_threshold_bytes
    plan = []
    for tag in range(BATCH_TAGS):
        if mix == "eager" or (mix in ("mixed", "onnode") and tag % 2):
            nbytes = threshold // 2 + tag
        else:
            nbytes = 8 * threshold + 8 * tag
        if mix == "mixed" and tag % 8 == 6:
            nbytes = 0
        plan.append((tag, nbytes))
    return plan


def _posts(comm, kind, specs, batched):
    """Post ``specs`` as one batch or one call at a time."""
    if batched:
        call = comm.irecv_all if kind == "recv" else comm.isend_all
        return (yield from call(specs))
    call = comm.irecv if kind == "recv" else comm.isend
    reqs = []
    for spec in specs:
        reqs.append((yield from call(*spec)))
    return reqs


def _waits(comm, reqs, batched):
    if batched:
        yield from comm.waitall(reqs)
    else:
        for req in reqs:
            yield from comm.wait(req)


def _events(comm):
    if comm.tracer is None:
        return None
    return [
        (e.lane, e.name, e.start, e.end, e.group, e.cat,
         repr(sorted((e.args or {}).items())))
        for e in comm.tracer.events
    ]


def _outcome(env, comm, stamps):
    return (stamps, env.now, comm.messages_sent, comm.bytes_sent,
            comm.messages_received, comm.bytes_received, _events(comm))


def _three_way(program, machine=JAGUARPF, model=ProgressModel.MANUAL_POLL,
               mix="mixed", mode="plain"):
    """Run ``program(env, comm, batched, stamps)`` three ways and compare.

    The batched calls on :class:`MirrorComm` must give the very floats, and
    trace events in the very order, of its per-message calls; the
    event-chained reference must give the same floats and the same multiset
    of trace events.
    """
    outcomes = []
    for comm_cls, batched in ((MirrorComm, True), (MirrorComm, False),
                              (EventChainedMirrorComm, False)):
        env, comm = _mix_comm(comm_cls, machine, model, mix, mode)
        stamps = []
        env.process(program(env, comm, batched, stamps))
        env.run()
        outcomes.append(_outcome(env, comm, stamps))
    batch, loop, ref = outcomes
    assert batch == loop
    assert batch[:-1] == ref[:-1]
    if batch[-1] is not None:
        assert sorted(batch[-1]) == sorted(ref[-1])
    return batch


def _steps(plan, orders=ORDERS, send_order=None):
    """A program: per step a receive batch, a gap, a send batch, the waits."""
    recv_specs = tuple((1, tag, n) for tag, n in plan)
    send_plan = plan if send_order is None else [plan[i] for i in send_order]
    send_specs = tuple((2, tag, n, None) for tag, n in send_plan)

    def program(env, comm, batched, stamps):
        for order in orders:
            recvs = yield from _posts(comm, "recv", recv_specs, batched)
            yield env.timeout(2e-6)
            sends = yield from _posts(comm, "send", send_specs, batched)
            if order == "recvs+sends":
                yield from _waits(comm, recvs + sends, batched)
            elif order == "sends+recvs":
                yield from _waits(comm, sends + recvs, batched)
            else:
                first, second = (recvs, sends) if order == "recvs,sends" else (sends, recvs)
                yield from _waits(comm, first, batched)
                stamps.append(env.now)
                yield from _waits(comm, second, batched)
            stamps.append(env.now)

    return program


class TestBatchedAgainstPerCall:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("mix", MIXES)
    @pytest.mark.parametrize("model", PROGRESS, ids=lambda m: m.value)
    @pytest.mark.parametrize("machine", CATALOG, ids=lambda m: m.name.replace(" ", "-"))
    def test_every_machine_model_mix_and_mode(self, machine, model, mix, mode):
        _three_way(_steps(_mix_plan(machine, mix)), machine, model, mix, mode)

    def test_the_aligned_batch_opens_no_transfer(self):
        plan = _mix_plan(JAGUARPF, "mixed")
        recv_specs = tuple((1, tag, n) for tag, n in plan)
        send_specs = tuple((2, tag, n, None) for tag, n in plan)
        env, comm = _mix_comm(MirrorComm, JAGUARPF, ProgressModel.MANUAL_POLL,
                              "mixed", "plain")
        seen = {}

        def program():
            recvs = yield from comm.irecv_all(recv_specs)
            seen["open after recvs"] = dict(comm._open)
            sends = yield from comm.isend_all(send_specs)
            seen["kinds"] = (type(recvs), type(sends), type(recvs + sends))
            yield from comm.waitall(recvs + sends)
            seen["listed"] = [(r.kind, r.peer, r.tag, r.nbytes, r.completed)
                              for r in recvs + sends]

        env.process(program())
        env.run()
        assert seen["open after recvs"] == {}
        assert list not in seen["kinds"]
        assert seen["listed"] == (
            [("recv", 1, tag, n, True) for tag, n in plan]
            + [("send", 2, tag, n, True) for tag, n in plan]
        )


    @pytest.mark.parametrize("impl", ADVECTION_MPI + ADVECTION_GPU_MPI)
    def test_advection_posts_one_message_at_a_time(self, impl, monkeypatch):
        def refuse(*_):
            raise AssertionError("advection took the array batch path")

        monkeypatch.setattr(mirror_module._Batch, "__init__", refuse)
        runner.run(RunConfig(machine=YONA, implementation=impl, cores=48,
                             threads_per_task=6))


class TestBatchFallback:
    """Batches that do not pair one-to-one take the per-message fold."""

    @pytest.mark.parametrize("mode", MODES)
    def test_misaligned_sends(self, mode):
        plan = _mix_plan(JAGUARPF, "mixed")
        _three_way(_steps(plan, send_order=list(reversed(range(len(plan))))),
                   mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("aligned", [True, False], ids=["aligned", "misaligned"])
    def test_reused_tags(self, mode, aligned):
        threshold = JAGUARPF.interconnect.eager_threshold_bytes
        plan = [(3, 10 * threshold), (3, threshold // 4), (6, 7 * threshold),
                (3, 100), (9, threshold), (6, 5 * threshold), (9, 0)]
        send_order = None if aligned else [1, 0, 2, 3, 5, 4, 6]
        _three_way(_steps(plan, send_order=send_order), mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_iterated_handles(self, mode):
        """Reading the requests moves a batch to the per-message form."""
        plan = _mix_plan(JAGUARPF, "mixed")
        recv_specs = tuple((1, tag, n) for tag, n in plan)
        send_specs = tuple((2, tag, n, None) for tag, n in plan)

        def program(env, comm, batched, stamps):
            # Step 1: the receive handle is read before the sends are posted.
            recvs = yield from _posts(comm, "recv", recv_specs, batched)
            assert [(r.peer, r.tag, r.nbytes) for r in recvs] == list(recv_specs)
            sends = yield from _posts(comm, "send", send_specs, batched)
            yield from _waits(comm, recvs + sends, batched)
            stamps.append(env.now)
            # Step 2: both handles are read after pairing, one request is
            # waited on by itself, then the whole batch.
            recvs = yield from _posts(comm, "recv", recv_specs, batched)
            sends = yield from _posts(comm, "send", send_specs, batched)
            assert [r.tag for r in sends] == [tag for tag, _ in plan]
            yield from comm.wait(list(recvs)[5])
            stamps.append(env.now)
            yield from _waits(comm, recvs + sends, batched)
            stamps.append(env.now)

        _three_way(program, mode=mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_single_posts_while_a_batch_is_pending(self, mode):
        plan = _mix_plan(JAGUARPF, "mixed")
        recv_specs = tuple((1, tag, n) for tag, n in plan)
        send_specs = tuple((2, tag, n, None) for tag, n in plan)

        def program(env, comm, batched, stamps):
            recvs = yield from _posts(comm, "recv", recv_specs, batched)
            first = yield from comm.isend(*send_specs[0])
            sends = yield from _posts(comm, "send", send_specs[1:], batched)
            extra = yield from comm.irecv(1, 99, 64)
            own = yield from comm.isend(2, 99, 64)
            yield from _waits(comm, recvs, batched)
            yield from comm.wait(first)
            yield from _waits(comm, sends, batched)
            yield from comm.waitall([extra, own])
            stamps.append(env.now)

        _three_way(program, mode=mode)


class TestBatchWaitNeverCompletes:
    def test_receive_batch_without_its_sends(self):
        env, comm = _mix_comm(MirrorComm, JAGUARPF, ProgressModel.MANUAL_POLL,
                              "mixed", "plain")
        specs = tuple((1, tag, n) for tag, n in [(7, 100), (8, 10_000_000)])

        def program():
            recvs = yield from comm.irecv_all(specs)
            yield from comm.waitall(recvs)

        env.process(program())
        with pytest.raises(SimulationError, match=r"recv with tag 7\b.*own send"):
            env.run()

    def test_send_batch_without_its_receives(self):
        env, comm = _mix_comm(MirrorComm, JAGUARPF, ProgressModel.MANUAL_POLL,
                              "mixed", "plain")
        specs = tuple((2, tag, n, None) for tag, n in [(4, 10_000_000), (6, 100)])

        def program():
            sends = yield from comm.isend_all(specs)
            yield from comm.waitall(sends)

        env.process(program())
        with pytest.raises(SimulationError, match=r"send with tag 4\b.*own receive"):
            env.run()


#: (cores, threads) per catalog machine for the runner-level SpMV checks:
#: more than one node, so the gather mixes on-node and off-node peers.
SPMV_POINTS = {
    "JaguarPF": (96, 6), "Hopper II": (96, 6), "Lens": (64, 4), "Yona": (48, 6),
    "A100-SXM": (256, 16), "Milan-SS11": (512, 16), "EFA-Cloud": (192, 12),
}


def _comm_events(result):
    """The communicator's own trace events, in the order they were recorded.

    Only these keep their order: a per-message call wakes the rank once per
    message, so other processes' events interleave with them differently.
    """
    return [
        (e.lane, e.name, e.start, e.end, e.group,
         repr(sorted((e.args or {}).items())))
        for e in result.tracer.events if e.cat == "comm"
    ]


def _assert_batches_same(cfg, monkeypatch):
    new = runner.run(cfg)
    with monkeypatch.context() as m:
        m.setattr(runner, "MirrorComm", PerCallMirrorComm)
        loop = runner.run(cfg)
    assert new.elapsed_s == loop.elapsed_s
    assert new.phases == loop.phases
    assert new.comm_stats == loop.comm_stats
    if cfg.trace:
        assert _intervals(new) == _intervals(loop)
        assert _comm_events(new) == _comm_events(loop)
    _assert_same(cfg, monkeypatch)


class TestSpmvBatches:
    @pytest.mark.parametrize("noisy", [False, True], ids=["traced", "traced-noise-high"])
    @pytest.mark.parametrize("model", PROGRESS, ids=lambda m: m.value)
    @pytest.mark.parametrize("machine", CATALOG, ids=lambda m: m.name.replace(" ", "-"))
    def test_gather(self, machine, model, noisy, monkeypatch):
        cores, threads = SPMV_POINTS[machine.name]
        impls = ["bulk", "nonblocking"]
        if machine.gpu is not None:
            impls.append("hybrid_overlap")
        extra = dict(seed=11, noise=NoiseSpec.preset("high")) if noisy else {}
        for impl in impls:
            _assert_batches_same(
                RunConfig(machine=_with_progress(machine, model),
                          implementation=impl, cores=cores,
                          threads_per_task=threads, trace=True, workload="spmv",
                          workload_params=SPMV_PARAMS, **extra),
                monkeypatch,
            )
