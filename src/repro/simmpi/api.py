"""The per-rank communication API shared by both MPI backends.

Calls that consume host time are generators: the caller writes
``req = yield from comm.isend(...)`` inside its own DES process, so MPI
CPU overheads land on the calling rank's timeline — exactly the property
the paper's overlap experiments hinge on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Tuple

__all__ = ["halo_tag", "HALO_TAGS", "Request", "RankComm"]


def halo_tag(dim: int, travel: int) -> int:
    """Tag for a halo message in ``dim`` traveling toward side ``travel``.

    A rank sends its ``-x`` boundary to the ``-x`` neighbor with
    ``halo_tag(0, -1)`` and receives data traveling ``-x`` from its ``+x``
    neighbor under the same tag — the pairing the mirror backend exploits.
    """
    if travel not in (-1, 1):
        raise ValueError("travel must be -1 or +1")
    return dim * 2 + (0 if travel < 0 else 1)


#: All six halo tags in serialized exchange order (x-, x+, y-, y+, z-, z+).
HALO_TAGS = tuple(halo_tag(d, s) for d in range(3) for s in (-1, 1))


@dataclass
class Request:
    """Handle for a pending nonblocking operation."""

    kind: str  # "send" or "recv"
    rank: int
    peer: int
    tag: int
    nbytes: int
    payload: Any = None  # send payload, or recv result once completed
    completed: bool = False
    # backend bookkeeping:
    _xfer: Any = field(default=None, repr=False)

    def __post_init__(self):
        if self.kind not in ("send", "recv"):
            raise ValueError(f"bad request kind {self.kind!r}")


class RankComm:
    """Abstract per-rank communicator. See backend docs for semantics."""

    rank: int
    nranks: int

    def isend(self, dst: int, tag: int, nbytes: int, payload: Any = None):
        """Generator: post a nonblocking send; returns a :class:`Request`."""
        raise NotImplementedError

    def irecv(self, src: int, tag: int, nbytes: int):
        """Generator: post a nonblocking receive; returns a :class:`Request`."""
        raise NotImplementedError

    def irecv_all(self, specs: Iterable[Tuple[int, int, int]]):
        """Generator: post one :meth:`irecv` per ``(src, tag, nbytes)``, in
        order; returns the requests. A backend may fold the batch into one
        wake-up of the calling process."""
        reqs = []
        for src, tag, nbytes in specs:
            reqs.append((yield from self.irecv(src, tag, nbytes)))
        return reqs

    def isend_all(self, specs: Iterable[Tuple[int, int, int, Any]]):
        """Generator: post one :meth:`isend` per ``(dst, tag, nbytes,
        payload)``, in order; returns the requests."""
        reqs = []
        for dst, tag, nbytes, payload in specs:
            reqs.append((yield from self.isend(dst, tag, nbytes, payload)))
        return reqs

    def wait(self, request: Request):
        """Generator: block until ``request`` completes.

        For receives, returns the payload (``None`` in shadow mode).
        """
        raise NotImplementedError

    def waitall(self, requests: Iterable[Request]):
        """Generator: wait on each request in turn (MPI_Waitall)."""
        payloads = []
        for r in requests:
            payloads.append((yield from self.wait(r)))
        return payloads

    def barrier(self):
        """Generator: dissemination barrier across all ranks."""
        raise NotImplementedError

    def allreduce_max(self, value: float):
        """Generator: max-allreduce of one scalar (used for norms/timing)."""
        raise NotImplementedError
