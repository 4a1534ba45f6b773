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
from typing import Any, Dict, Iterable, Optional, Tuple

from repro.des import Environment, SimulationError
from repro.decomp.partition import Decomposition
from repro.machines.spec import InterconnectSpec, MachineSpec, NodeSpec, ProgressModel
from repro.simmpi.api import RankComm, Request, halo_tag

__all__ = ["MirrorProfile", "MirrorComm"]


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
        return self.offnode_by_tag.get(tag, self.nranks > self.tasks_per_node)

    def nic_share(self, tag: int) -> float:
        """NIC contention factor for ``tag``."""
        return self.nic_share_by_tag.get(tag, max(1.0, float(self.tasks_per_node)))


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


class MirrorComm(RankComm):
    """The representative rank's communicator, in closed form.

    Nothing but this communicator touches a mirrored transfer, so its
    timing depends only on when it was posted and on per-run constants:
    each transfer's completion is computed as a float when it is posted
    (background) or first waited on (foreground), with the same sequential
    additions the engine would make, and a call costs the calling process
    at most one engine wake-up — one per batch for :meth:`irecv_all`,
    :meth:`isend_all` and :meth:`waitall` (docs/MODEL.md §4).

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

    # -- helpers --------------------------------------------------------------
    def _wire_rate(self, xfer) -> float:
        """Bytes/s of the wire ``xfer`` (anything with ``local``/``tag``) uses."""
        if xfer.local:
            return self._memcpy_bps
        share = self.profile.nic_share(xfer.tag)
        npn = self.profile.interconnect.nics_per_node
        if npn > 1:
            # Multi-rail nodes spread the contending senders across their
            # NICs (round-robin striping, as in the full backend); a rail
            # still serves at least its own sender.
            share = max(1.0, share / npn)
        return self.profile.interconnect.bandwidth_bps / share

    def _start_background(self, xfer: _MirrorXfer, t: float) -> None:
        """Fix ``xfer.bg_end`` for a transfer that became ready at ``t``."""
        if xfer.local:
            lat, frac = self._local_bg
        elif xfer.eager:
            # How much of an eager wire moves without host attention is the
            # progress model's call (manual-poll: nothing — paper ref [1] —
            # a progress engine drains the unexpected queue on its own).
            lat, frac = self._eager_bg
        else:
            lat, frac = self._rendezvous_bg
        wire_mult = 1.0
        perturb = self.perturb
        if perturb is not None and not xfer.local:
            lat = lat * perturb.latency_factor(self.rank) + perturb.message_delay(
                self.rank, t
            )
            wire_mult = perturb.wire_factor(self.rank)
        # Latency, then wire: two additions, never ``t + (lat + wire)``,
        # which rounds differently (docs/MODEL.md §7).
        end = _after(t, lat)
        if frac > 0:
            end = _after(end, frac * xfer.nbytes * wire_mult / xfer.rate)
        xfer.bg_end = end
        if self.tracer is not None:
            self.tracer.record(
                "mpi" if xfer.local else self._progress_lane, f"bg t{xfer.tag}",
                t, end, group=self.rank, cat="comm",
                args={"tag": xfer.tag, "nbytes": xfer.nbytes, "stage": "background"},
            )

    def _start_foreground(self, xfer: _MirrorXfer, t: float) -> None:
        """Fix ``xfer.fg_end`` for a wait that reaches it at ``t``."""
        remainder = self._fg_share[xfer.eager] * xfer.nbytes
        if remainder > 0:
            if self.perturb is not None:
                remainder *= self.perturb.wire_factor(self.rank)
            end = _after(t, remainder / xfer.rate)
            if self.tracer is not None:
                self.tracer.record(
                    "mpi", f"fg t{xfer.tag}", t, end, group=self.rank, cat="comm",
                    args={"tag": xfer.tag, "nbytes": xfer.nbytes,
                          "stage": "foreground"},
                )
        else:
            end = t
        xfer.fg_end = end

    def _claim(self, tag: int, send: bool) -> _MirrorXfer:
        """The oldest xfer of ``tag`` still missing this side, or a new one.

        ``tag``'s queue holds the xfers posted on one side only, oldest
        first. They all miss the same side — a post pairs with the oldest
        xfer missing its side before it would open a new one — so FIFO
        pairing is a look at the head, and a paired xfer leaves the queue
        (its requests hold their own references).
        """
        q = self._open.get(tag)
        if q:
            head = q[0]
            if not (head.send_posted if send else head.recv_posted):
                return q.popleft()
        xfer = _MirrorXfer(tag)
        if q is None:
            self._open[tag] = deque((xfer,))
        else:
            q.append(xfer)
        return xfer

    # -- API ---------------------------------------------------------------
    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Post the representative rank's send; mirrors the matching recv."""
        reqs = yield from self.isend_all(((dst, tag, nbytes, payload),))
        return reqs[0]

    def irecv(self, src: int, tag: int, nbytes: int):
        """Post a receive; pairs with this rank's own send of ``tag``."""
        reqs = yield from self.irecv_all(((src, tag, nbytes),))
        return reqs[0]

    def wait(self, request: Request):
        """Block until the mirrored transfer completes."""
        yield from self.waitall((request,))
        return None

    def isend_all(self, specs: Iterable[Tuple[int, int, int, Any]]):
        """Post each send at its own post time; the rank wakes up once."""
        env = self.env
        t = env.now
        reqs = []
        for dst, tag, nbytes, payload in specs:
            if payload is not None:
                raise ValueError("mirror backend cannot carry functional payloads")
            t = _after(t, self._cpu_s)
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
            link = self._links.get(tag)
            if link is None:  # first message under this tag: per-run constants
                xfer.local = not self.profile.is_offnode(tag)
                link = self._links[tag] = (xfer.local, self._wire_rate(xfer))
            xfer.local, xfer.rate = link
            xfer.send_posted = True
            # On-node and eager sends need only the sender posted; a
            # rendezvous transfer starts once the receive is posted too.
            if xfer.local or xfer.eager or xfer.recv_posted:
                self._start_background(xfer, t)
            reqs.append(Request("send", self.rank, dst, tag, nbytes, _xfer=xfer))
        if t != env.now:
            yield env.timeout_at(t)
        return reqs

    def irecv_all(self, specs: Iterable[Tuple[int, int, int]]):
        """Post each receive at its own post time; the rank wakes up once."""
        env = self.env
        t = env.now
        reqs = []
        for src, tag, nbytes in specs:
            t = _after(t, self._cpu_s)
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
                self._start_background(xfer, t)
            reqs.append(Request("recv", self.rank, src, tag, nbytes, _xfer=xfer))
        if t != env.now:
            yield env.timeout_at(t)
        return reqs

    def waitall(self, requests: Iterable[Request]):
        """Wait on each request in turn; the rank wakes up once, at the end."""
        env = self.env
        t = env.now
        payloads = []
        for request in requests:
            payloads.append(None)
            if request.completed:
                continue
            request.completed = True
            xfer: _MirrorXfer = request._xfer
            if xfer.eager and not xfer.local and request.kind == "send":
                continue  # buffered; only the receiver waits
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
                    self._start_foreground(xfer, t)
                if xfer.fg_end > t:
                    t = xfer.fg_end
            if (xfer.local or xfer.eager) and request.kind == "recv":
                t = _after(t, xfer.nbytes / self._memcpy_bps)
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
