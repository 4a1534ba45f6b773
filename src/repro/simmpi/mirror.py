"""Mirror (representative-rank) MPI backend.

Simulates one worst-case rank against symmetric neighbor images: because
every rank of the bulk-synchronous advection step does the same work on a
subdomain of (almost) the same size, the data a rank *receives* under a
given halo tag is timed exactly like the data it *sends* under that tag.
A receive request therefore pairs with the rank's own send of the same tag,
and the per-step time of the representative rank is the ensemble per-step
time. Cross-validation tests assert agreement with the full backend.

The :class:`MirrorProfile` captures what the representative rank needs to
know about the whole machine: which halo directions cross the NIC versus
staying on-node, and how many concurrent transfers share the NIC during
each dimension's exchange phase (contention factor).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import repeat
from operator import is_
from typing import Any, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.des import Environment, SimulationError
from repro.decomp.partition import Decomposition
from repro.machines.spec import InterconnectSpec, MachineSpec, NodeSpec, ProgressModel
from repro.simmpi.api import RankComm, Request, halo_tag

__all__ = ["MirrorProfile", "MirrorComm"]

#: Batch plans a communicator keeps (keyed by the specs tuple's identity);
#: a workload posts the same one or two tuples every step.
_PLANS_PER_RUN = 8


@dataclass(frozen=True)
class MirrorProfile:
    """Network facts as seen by the representative rank."""

    interconnect: InterconnectSpec
    node: NodeSpec
    nranks: int
    tasks_per_node: int
    #: tag -> True when that halo message crosses the NIC (off-node).
    offnode_by_tag: Dict[int, bool] = field(default_factory=dict)
    #: tag -> concurrent same-node transfers sharing the NIC during that
    #: exchange (>= 1); models NIC contention without simulating peers.
    nic_share_by_tag: Dict[int, float] = field(default_factory=dict)
    representative_rank: int = 0

    @classmethod
    def for_decomposition(
        cls,
        machine: MachineSpec,
        decomp: Decomposition,
        tasks_per_node: int,
    ) -> "MirrorProfile":
        """Build a profile for the comm-heaviest rank of the first node.

        Scans the ranks of node 0 (placement is contiguous), picks the one
        with the most off-node faces as representative, and counts how many
        node-local transfers contend for the NIC in each dimension's
        exchange phase. That scan depends only on the task grid and the
        node size, so it runs once per ``(ntasks, task_grid, tpn)``
        (:func:`_node_plan`); the machine's network specs are read per call.
        """
        tpn = min(tasks_per_node, decomp.ntasks)
        rep, offnode_by_tag, nic_share_by_tag = _node_plan(
            decomp.ntasks, decomp.task_grid, tpn
        )
        return cls(
            interconnect=machine.interconnect,
            node=machine.node,
            nranks=decomp.ntasks,
            tasks_per_node=tpn,
            # Copies: the memoized plan is shared by every profile built
            # from it, in every thread.
            offnode_by_tag=dict(offnode_by_tag),
            nic_share_by_tag=dict(nic_share_by_tag),
            representative_rank=rep,
        )

    def is_offnode(self, tag: int) -> bool:
        """Whether messages with ``tag`` cross the NIC."""
        return self.offnode_flags((tag,))[0]

    def nic_share(self, tag: int) -> float:
        """NIC contention factor for ``tag``."""
        return self.nic_shares((tag,))[0]

    def offnode_flags(self, tags: Iterable[int]) -> List[bool]:
        """:meth:`is_offnode` of each of ``tags``, in one pass."""
        default = self.nranks > self.tasks_per_node
        return list(map(self.offnode_by_tag.get, tags, repeat(default)))

    def nic_shares(self, tags: Iterable[int]) -> List[float]:
        """:meth:`nic_share` of each of ``tags``, in one pass."""
        default = max(1.0, float(self.tasks_per_node))
        return list(map(self.nic_share_by_tag.get, tags, repeat(default)))


@lru_cache(maxsize=256)
def _node_plan(
    ntasks: int, task_grid: Tuple[int, int, int], tpn: int
) -> Tuple[int, Dict[int, bool], Dict[int, float]]:
    """``(representative_rank, offnode_by_tag, nic_share_by_tag)`` of node 0.

    Face neighbours and node placement depend on the task grid alone, and
    decomposing a ``task_grid``-point domain into ``ntasks`` tasks gives
    back that very grid (one point per task), so the plan is built on that
    stand-in. Callers must not mutate the returned dicts.
    """
    decomp = Decomposition(ntasks, task_grid)
    if decomp.task_grid != task_grid:
        raise ValueError(f"{task_grid} is not a task grid for {ntasks} tasks")
    node_ranks = list(range(min(tpn, ntasks)))
    off = {r: decomp.offnode_dims(r, tpn) for r in node_ranks}

    def n_off(r):
        return sum(int(b) for d in off[r].values() for b in d)

    rep = max(node_ranks, key=n_off)
    offnode_by_tag: Dict[int, bool] = {}
    nic_share_by_tag: Dict[int, float] = {}
    for dim in range(3):
        # Send messages from this node during the dim exchange phase.
        node_sends = sum(int(b) for r in node_ranks for b in off[r][dim])
        for side in (-1, 1):
            tag = halo_tag(dim, side)
            is_off = off[rep][dim][0 if side < 0 else 1]
            offnode_by_tag[tag] = is_off
            nic_share_by_tag[tag] = max(1.0, float(node_sends))
    return rep, offnode_by_tag, nic_share_by_tag


def _after(t: float, d: float) -> float:
    """``t + d`` by the engine's delay rule (:meth:`Environment.timeout`).

    Adds only a positive ``d`` (a zero delay leaves ``t`` as it is, bit for
    bit) and rejects a negative one, so a time folded here is the float the
    engine would have produced by scheduling the same delays one by one.
    """
    if d > 0:
        return t + d
    if d == 0:
        return t
    raise ValueError(f"negative delay: {d!r}")


class _MirrorXfer:
    """One mirrored transfer: its timing is two floats, not DES events.

    ``bg_end`` is set when the transfer becomes ready (both ends posted, or
    only the send for eager and on-node messages); ``fg_end`` by the first
    wait that finds the background part done.
    """

    __slots__ = ("tag", "nbytes", "send_posted", "recv_posted", "bg_end", "fg_end",
                 "eager", "local", "rate")

    def __init__(self, tag: int):
        self.tag = tag
        self.nbytes = 0
        self.send_posted = False
        self.recv_posted = False
        self.bg_end: Optional[float] = None
        self.fg_end: Optional[float] = None
        self.eager = False
        self.local = False
        self.rate = 0.0


class _MirrorRequest(Request):
    """A mirror :class:`Request`; the kind is a literal, so it skips the check."""

    def __init__(self, kind: str, rank: int, peer: int, tag: int, nbytes: int,
                 xfer: _MirrorXfer):
        self.kind = kind
        self.rank = rank
        self.peer = peer
        self.tag = tag
        self.nbytes = nbytes
        self.payload = None
        self.completed = False
        self._xfer = xfer


class _Plan:
    """One batch's specs, split into per-message columns.

    ``timing`` holds the per-message constants a send batch's background
    and waits read; it is filled in on the first paired post. A tuple of
    specs keeps its plan for the rest of the run (:meth:`MirrorComm._plan`).
    """

    __slots__ = ("specs", "peers", "tags", "nbytes", "total", "shadow", "timing")

    def __init__(self, specs: Tuple[tuple, ...]):
        self.specs = specs
        columns = tuple(zip(*specs)) or ((), (), ())
        self.peers, self.tags, self.nbytes = columns[:3]
        self.total = sum(self.nbytes)
        # A payload can only be refused message by message, at its post.
        self.shadow = len(columns) < 4 or all(map(is_, columns[3], repeat(None)))
        self.timing: Optional[tuple] = None


class _Side:
    """The receive or the send half of a :class:`_Batch`."""

    __slots__ = ("batch", "recv", "plan", "completed", "requests")

    def __init__(self, batch: "_Batch", recv: bool, plan: _Plan):
        self.batch = batch
        self.recv = recv
        self.plan = plan
        self.completed = False
        self.requests: Optional[list] = None


class _Batch:
    """A receive batch and the send batch paired with it, as columns.

    Message ``i`` of one side pairs with message ``i`` of the other. ``bg``
    is ``None`` until the sends are posted, ``fg`` until the first wait;
    ``settled`` once the receive side's wait has folded every message, after
    which waiting on the sends cannot move the clock. ``xfers`` is set when
    the batch is moved to the per-message form.
    """

    __slots__ = ("recv", "send", "bg", "fg", "settled", "xfers")

    def __init__(self, recv_plan: _Plan):
        self.recv = _Side(self, True, recv_plan)
        self.send: Optional[_Side] = None
        self.bg: Optional[list] = None
        self.fg: Optional[list] = None
        self.settled = False
        self.xfers: Optional[list] = None


class _Batched:
    """The requests of batched posts, held as columns until iterated.

    Iterating yields one :class:`Request` per message (moving the batches to
    the per-message form); ``recvs + sends`` of two handles is a handle that
    :meth:`MirrorComm.waitall` folds without building them.
    """

    __slots__ = ("comm", "sides")

    def __init__(self, comm: "MirrorComm", sides: Tuple[_Side, ...]):
        self.comm = comm
        self.sides = sides

    def __len__(self) -> int:
        return sum(len(s.plan.tags) for s in self.sides)

    def __iter__(self):
        for side in self.sides:
            yield from self.comm._requests(side)

    def __add__(self, other):
        if isinstance(other, _Batched) and other.comm is self.comm:
            return _Batched(self.comm, self.sides + other.sides)
        return list(self) + list(other)

    def __radd__(self, other):
        return list(other) + list(self)


class MirrorComm(RankComm):
    """The representative rank's communicator, in closed form.

    Nothing but this communicator touches a mirrored transfer, so its
    timing depends only on when it was posted and on per-run constants:
    each transfer's completion is computed as a float when it is posted
    (background) or first waited on (foreground), with the same sequential
    additions the engine would make, and a call costs the calling process
    at most one engine wake-up — one per batch for :meth:`irecv_all`,
    :meth:`isend_all` and :meth:`waitall` (docs/MODEL.md §4).

    A receive batch followed by a send batch of the same tags in the same
    order is held as columns (:class:`_Batch`), with no per-message objects;
    any other post moves a pending batch to the per-message form first.

    Functional payloads are not supported (there are no real peers); use the
    full backend for functional runs. In mirror mode a receive's payload is
    always ``None`` and implementations must run in shadow-data mode.
    """

    def __init__(self, env: Environment, profile: MirrorProfile):
        self.env = env
        self.profile = profile
        self.rank = profile.representative_rank
        self.nranks = profile.nranks
        self._open: Dict[int, deque] = {}  # tag -> xfers posted on one side only
        # A receive batch waiting for its sends; while set, ``_open`` is
        # empty (every other post moves it into ``_open`` first).
        self._pending: Optional[_Batch] = None
        self._plans: Dict[int, _Plan] = {}  # id(specs tuple) -> its plan
        ic = profile.interconnect
        # Per-run constants of the fold: each is the float a message would
        # compute from the specs, evaluated once.
        self._cpu_s = ic.per_message_cpu_us * 1e-6
        self._memcpy_bps = profile.node.memcpy_bandwidth_gbs * 1e9
        self._eager_max = ic.eager_threshold_bytes
        # (latency, background fraction) by protocol; foreground share by
        # eagerness. The progress model enters only through these.
        self._local_bg = (0.5e-6, 1.0)
        self._eager_bg = (ic.latency_s, ic.background_fraction(eager=True))
        self._rendezvous_bg = (2.0 * ic.latency_s, ic.background_fraction(eager=False))
        self._fg_share = {
            eager: 1.0 - ic.background_fraction(eager) for eager in (False, True)
        }
        self._progress_lane = (
            "mpi" if ic.progress is ProgressModel.MANUAL_POLL else "progress"
        )
        self._links: Dict[int, tuple] = {}  # tag -> (local, wire rate)
        #: optional repro.obs tracer: transfer intervals on the "mpi" lane
        #: plus isend/irecv marks (matched per tag by the invariant checker).
        self.tracer = None
        #: optional repro.perturb injector: per-message latency/bandwidth
        #: jitter, progress stalls, drop/retransmit faults (off-node only).
        self.perturb = None
        # Statistics (protocol-conformance checks and reports).
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_received = 0
        self.bytes_received = 0

    # -- per-message timing ------------------------------------------------------
    def _rate(self, local: bool, share: float) -> float:
        """Bytes/s of an on-node wire, or of a NIC ``share`` senders drive."""
        if local:
            return self._memcpy_bps
        npn = self.profile.interconnect.nics_per_node
        if npn > 1:
            # Multi-rail nodes spread the contending senders across their
            # NICs (round-robin striping, as in the full backend); a rail
            # still serves at least its own sender.
            share = max(1.0, share / npn)
        return self.profile.interconnect.bandwidth_bps / share

    def _link(self, tag: int) -> tuple:
        """``(local, wire rate)`` of ``tag``: per-run constants."""
        link = self._links.get(tag)
        if link is None:
            local = not self.profile.is_offnode(tag)
            link = self._links[tag] = (
                local, self._rate(local, self.profile.nic_share(tag))
            )
        return link

    def _background(self, t: float, tag: int, nbytes: int, local: bool,
                    eager: bool, rate: float) -> float:
        """The background end of a transfer that became ready at ``t``."""
        if local:
            lat, frac = self._local_bg
        elif eager:
            # How much of an eager wire moves without host attention is the
            # progress model's call (manual-poll: nothing — paper ref [1] —
            # a progress engine drains the unexpected queue on its own).
            lat, frac = self._eager_bg
        else:
            lat, frac = self._rendezvous_bg
        wire_mult = 1.0
        perturb = self.perturb
        if perturb is not None and not local:
            lat = lat * perturb.latency_factor(self.rank) + perturb.message_delay(
                self.rank, t
            )
            wire_mult = perturb.wire_factor(self.rank)
        # Latency, then wire: two additions, never ``t + (lat + wire)``,
        # which rounds differently (docs/MODEL.md §7).
        end = _after(t, lat)
        if frac > 0:
            end = _after(end, frac * nbytes * wire_mult / rate)
        if self.tracer is not None:
            self.tracer.record(
                "mpi" if local else self._progress_lane, f"bg t{tag}",
                t, end, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes, "stage": "background"},
            )
        return end

    def _foreground(self, t: float, tag: int, nbytes: int, eager: bool,
                    rate: float) -> float:
        """The foreground end of an off-node transfer first waited on at ``t``."""
        remainder = self._fg_share[eager] * nbytes
        if remainder <= 0:
            return t
        if self.perturb is not None:
            remainder *= self.perturb.wire_factor(self.rank)
        end = _after(t, remainder / rate)
        if self.tracer is not None:
            self.tracer.record(
                "mpi", f"fg t{tag}", t, end, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes, "stage": "foreground"},
            )
        return end

    # -- one message at a time ---------------------------------------------------
    def _claim(self, tag: int, send: bool) -> _MirrorXfer:
        """The oldest xfer of ``tag`` still missing this side, or a new one.

        ``tag``'s queue holds the xfers posted on one side only, oldest
        first. They all miss the same side — a post pairs with the oldest
        xfer missing its side before it would open a new one — so FIFO
        pairing is a look at the head, and a paired xfer leaves the queue
        (its requests hold their own references); an emptied queue leaves
        ``_open``.
        """
        q = self._open.get(tag)
        if q is not None:
            if not (q[0].send_posted if send else q[0].recv_posted):
                xfer = q.popleft()
                if not q:
                    del self._open[tag]
                return xfer
            xfer = _MirrorXfer(tag)
            q.append(xfer)
            return xfer
        xfer = _MirrorXfer(tag)
        self._open[tag] = deque((xfer,))
        return xfer

    def _post_send(self, t: float, dst: int, tag: int, nbytes: int) -> Request:
        xfer = self._claim(tag, True)
        self.messages_sent += 1
        self.bytes_sent += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "isend", t, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.nbytes = nbytes
        xfer.eager = nbytes <= self._eager_max
        xfer.local, xfer.rate = self._link(tag)
        xfer.send_posted = True
        # On-node and eager sends need only the sender posted; a
        # rendezvous transfer starts once the receive is posted too.
        if xfer.local or xfer.eager or xfer.recv_posted:
            xfer.bg_end = self._background(
                t, tag, nbytes, xfer.local, xfer.eager, xfer.rate
            )
        return _MirrorRequest("send", self.rank, dst, tag, nbytes, xfer)

    def _post_recv(self, t: float, src: int, tag: int, nbytes: int) -> Request:
        xfer = self._claim(tag, False)
        self.messages_received += 1
        self.bytes_received += nbytes
        if self.tracer is not None:
            self.tracer.mark(
                "mpi", "irecv", t, group=self.rank, cat="comm",
                args={"tag": tag, "nbytes": nbytes},
            )
        xfer.recv_posted = True
        if xfer.send_posted and xfer.bg_end is None:
            xfer.bg_end = self._background(
                t, tag, xfer.nbytes, xfer.local, xfer.eager, xfer.rate
            )
        return _MirrorRequest("recv", self.rank, src, tag, nbytes, xfer)

    def _wait_one(self, t: float, request: Request) -> float:
        """Fold one request's completion into the clock ``t``."""
        if request.completed:
            return t
        request.completed = True
        xfer: _MirrorXfer = request._xfer
        if xfer.eager and not xfer.local and request.kind == "send":
            return t  # buffered; only the receiver waits
        if xfer.bg_end is None:
            missing = "receive" if xfer.send_posted else "send"
            raise SimulationError(
                f"mirror wait on a {request.kind} with tag {xfer.tag} can "
                f"never complete: the representative rank's own {missing} "
                "under that tag was never posted"
            )
        if xfer.bg_end > t:
            t = xfer.bg_end
        if not xfer.local:
            if xfer.fg_end is None:
                xfer.fg_end = self._foreground(
                    t, xfer.tag, xfer.nbytes, xfer.eager, xfer.rate
                )
            if xfer.fg_end > t:
                t = xfer.fg_end
        if (xfer.local or xfer.eager) and request.kind == "recv":
            t = _after(t, xfer.nbytes / self._memcpy_bps)
        return t

    # -- batches as columns ------------------------------------------------------
    def _plan(self, specs: Iterable[tuple]) -> _Plan:
        """The plan of ``specs``; a tuple keeps its plan for the whole run."""
        if type(specs) is not tuple:
            return _Plan(tuple(specs))
        plan = self._plans.get(id(specs))
        if plan is None or plan.specs is not specs:
            if len(self._plans) >= _PLANS_PER_RUN:
                self._plans.clear()
            plan = self._plans[id(specs)] = _Plan(specs)
        return plan

    def _timing(self, plan: _Plan) -> tuple:
        """Per-message constants of a send plan, as columns.

        Each is the float :meth:`_background`, :meth:`_foreground` and
        :meth:`_wait_one` compute for that message, by the same IEEE
        operations in the same order (``frac·B·1.0/rate`` is
        ``frac·B/rate``); the foreground and receive-copy terms of messages
        that have none are ``0.0``.
        """
        if plan.timing is None:
            prof = self.profile
            nb = np.array(plan.nbytes, dtype=float)
            local = ~np.array(prof.offnode_flags(plan.tags), dtype=bool)
            # The NIC rate depends on the share alone: one scalar per value.
            shares = np.array(prof.nic_shares(plan.tags))
            distinct, which = np.unique(shares, return_inverse=True)
            nic_rate = np.array([self._rate(False, v) for v in distinct.tolist()])
            rate = np.where(local, self._memcpy_bps, nic_rate[which])
            eager = nb <= self._eager_max
            (local_lat, local_frac), (eager_lat, eager_frac), (rdv_lat, rdv_frac) = (
                self._local_bg, self._eager_bg, self._rendezvous_bg
            )
            lat = np.where(local, local_lat, np.where(eager, eager_lat, rdv_lat))
            frac = np.where(local, local_frac, np.where(eager, eager_frac, rdv_frac))
            remainder = np.where(eager, self._fg_share[True], self._fg_share[False]) * nb
            fg = np.where(~local & (remainder > 0), remainder / rate, 0.0)
            memcpy = np.where(local | eager, nb / self._memcpy_bps, 0.0)
            plan.timing = (local.tolist(), eager.tolist(), rate.tolist(), lat,
                           frac * nb / rate, fg.tolist(), memcpy.tolist())
        return plan.timing

    def _post_times(self, n: int) -> np.ndarray:
        """``[now, now+cpu, now+cpu+cpu, …]``: ``n`` posts, each paying its
        own overhead. ``accumulate`` adds in order, like the scalar loop."""
        times = np.full(n + 1, self._cpu_s)
        times[0] = self.env.now
        return np.add.accumulate(times)

    def _spill(self, batch: _Batch) -> list:
        """Move ``batch`` to the per-message form; its xfers, in order."""
        if batch.xfers is None:
            if batch.bg is None:
                # Receives only: open them, as one-at-a-time posts would.
                self._pending = None
                xfers = []
                for tag in batch.recv.plan.tags:
                    xfer = self._claim(tag, False)
                    xfer.recv_posted = True
                    xfers.append(xfer)
                batch.xfers = xfers
            else:
                plan = batch.send.plan
                local, eager, rate = self._timing(plan)[:3]
                xfers = []
                for i, tag in enumerate(plan.tags):
                    xfer = _MirrorXfer(tag)
                    xfer.nbytes = plan.nbytes[i]
                    xfer.eager, xfer.local, xfer.rate = eager[i], local[i], rate[i]
                    xfer.send_posted = xfer.recv_posted = True
                    xfer.bg_end = batch.bg[i]
                    if batch.fg is not None and not local[i]:
                        xfer.fg_end = batch.fg[i]
                    xfers.append(xfer)
                batch.xfers = xfers
        return batch.xfers

    def _requests(self, side: _Side) -> list:
        """``side``'s per-message requests (moving its batch to that form)."""
        if side.requests is None:
            kind = "recv" if side.recv else "send"
            plan = side.plan
            side.requests = [
                _MirrorRequest(kind, self.rank, peer, tag, nbytes, xfer)
                for peer, tag, nbytes, xfer in zip(
                    plan.peers, plan.tags, plan.nbytes, self._spill(side.batch)
                )
            ]
            for req in side.requests:
                req.completed = side.completed
        return side.requests

    def _wait_side(self, t: float, side: _Side) -> float:
        """Fold one batch side's completions into the clock ``t``."""
        if side.completed:
            return t
        batch = side.batch
        if batch.xfers is not None:
            requests = self._requests(side)
            side.completed = True
            for request in requests:
                t = self._wait_one(t, request)
            return t
        side.completed = True
        if batch.bg is None:
            raise SimulationError(
                f"mirror wait on a recv with tag {side.plan.tags[0]} can never "
                "complete: the representative rank's own send under that tag "
                "was never posted"
            )
        if batch.settled:
            return t  # the receive side's wait already passed every end
        plan = batch.send.plan
        local, eager, rate, _, _, fg_s, memcpy_s = self._timing(plan)
        if (side.recv and batch.fg is None and self.tracer is None
                and self.perturb is None):
            # First wait, nothing to record or draw: per message, the
            # background end, then the foreground (``+ 0.0`` on-node), then
            # the receive copy (``+ 0.0`` for rendezvous).
            fg = []
            for b, f, m in zip(batch.bg, fg_s, memcpy_s):
                if b > t:
                    t = b
                t = t + f
                fg.append(t)
                t = t + m
            batch.fg = fg
            batch.settled = True
            return t
        if batch.fg is None:
            batch.fg = [None] * len(plan.tags)
        fg = batch.fg
        recv = side.recv
        for i, b in enumerate(batch.bg):
            loc = local[i]
            if not (recv or loc or not eager[i]):
                continue  # buffered eager send; only the receiver waits
            if b > t:
                t = b
            if not loc:
                f = fg[i]
                if f is None:
                    f = fg[i] = self._foreground(
                        t, plan.tags[i], plan.nbytes[i], eager[i], rate[i]
                    )
                if f > t:
                    t = f
            if recv:
                t = t + memcpy_s[i]
        batch.settled = recv
        return t

    # -- API ---------------------------------------------------------------
    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Post the representative rank's send; mirrors the matching recv."""
        if payload is not None:
            raise ValueError("mirror backend cannot carry functional payloads")
        if self._pending is not None:
            self._spill(self._pending)
        env = self.env
        t = _after(env.now, self._cpu_s)
        request = self._post_send(t, dst, tag, nbytes)
        if t != env.now:
            yield env.timeout_at(t)
        return request

    def irecv(self, src: int, tag: int, nbytes: int):
        """Post a receive; pairs with this rank's own send of ``tag``."""
        if self._pending is not None:
            self._spill(self._pending)
        env = self.env
        t = _after(env.now, self._cpu_s)
        request = self._post_recv(t, src, tag, nbytes)
        if t != env.now:
            yield env.timeout_at(t)
        return request

    def wait(self, request: Request):
        """Block until the mirrored transfer completes."""
        env = self.env
        t = self._wait_one(env.now, request)
        if t != env.now:
            yield env.timeout_at(t)
        return None

    def irecv_all(self, specs: Iterable[Tuple[int, int, int]]):
        """Post each receive at its own post time; the rank wakes up once.

        With no transfer open, the batch is held as columns until its sends
        are posted; otherwise each receive is posted as :meth:`irecv` would.
        """
        env = self.env
        plan = self._plan(specs)
        n = len(plan.tags)
        if self._pending is not None:
            self._spill(self._pending)
        if self._open or not n:
            t = env.now
            reqs = []
            for src, tag, nbytes in plan.specs:
                t = _after(t, self._cpu_s)
                reqs.append(self._post_recv(t, src, tag, nbytes))
        else:
            times = self._post_times(n)
            t = float(times[n])
            self.messages_received += n
            self.bytes_received += plan.total
            if self.tracer is not None:
                for tm, tag, nbytes in zip(times[1:].tolist(), plan.tags, plan.nbytes):
                    self.tracer.mark(
                        "mpi", "irecv", tm, group=self.rank, cat="comm",
                        args={"tag": tag, "nbytes": nbytes},
                    )
            batch = self._pending = _Batch(plan)
            reqs = _Batched(self, (batch.recv,))
        if t != env.now:
            yield env.timeout_at(t)
        return reqs

    def isend_all(self, specs: Iterable[Tuple[int, int, int, Any]]):
        """Post each send at its own post time; the rank wakes up once.

        Pairs one-to-one with the pending receive batch when the tags agree
        in order; otherwise each send is posted as :meth:`isend` would.
        """
        env = self.env
        plan = self._plan(specs)
        batch = self._pending
        if batch is None or not plan.shadow or batch.recv.plan.tags != plan.tags:
            if batch is not None:
                self._spill(batch)
            t = env.now
            reqs = []
            for dst, tag, nbytes, payload in plan.specs:
                if payload is not None:
                    raise ValueError("mirror backend cannot carry functional payloads")
                t = _after(t, self._cpu_s)
                reqs.append(self._post_send(t, dst, tag, nbytes))
        else:
            self._pending = None
            n = len(plan.tags)
            local, eager, rate, lat, wire = self._timing(plan)[:5]
            times = self._post_times(n)
            t = float(times[n])
            if self.tracer is None and self.perturb is None:
                # Latency, then wire: the scalar path's two additions.
                batch.bg = ((times[1:] + lat) + wire).tolist()
            else:
                bg = batch.bg = []
                for tm, tag, nbytes, loc, e, r in zip(
                    times[1:].tolist(), plan.tags, plan.nbytes, local, eager, rate
                ):
                    if self.tracer is not None:
                        self.tracer.mark(
                            "mpi", "isend", tm, group=self.rank, cat="comm",
                            args={"tag": tag, "nbytes": nbytes},
                        )
                    bg.append(self._background(tm, tag, nbytes, loc, e, r))
            self.messages_sent += n
            self.bytes_sent += plan.total
            batch.send = _Side(batch, False, plan)
            reqs = _Batched(self, (batch.send,))
        if t != env.now:
            yield env.timeout_at(t)
        return reqs

    def waitall(self, requests: Iterable[Request]):
        """Wait on each request in turn; the rank wakes up once, at the end."""
        env = self.env
        t = env.now
        if isinstance(requests, _Batched) and requests.comm is self:
            for side in requests.sides:
                t = self._wait_side(t, side)
            payloads = [None] * len(requests)
        else:
            payloads = []
            for request in requests:
                payloads.append(None)
                t = self._wait_one(t, request)
        if t != env.now:
            yield env.timeout_at(t)
        return payloads

    def barrier(self):
        """Log-depth barrier cost (no peers to actually synchronize)."""
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
        """Reduction cost; the representative's value is the result."""
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
