"""Wire-protocol frames exchanged between simulated ranks.

The runtime speaks a small protocol modelled on UCX-class transports:

* ``EAGER`` — envelope + data in one message; sender completes on injection.
* ``RTS`` / ``CTS`` / ``RDATA`` — rendezvous for messages above the eager
  threshold: request-to-send, clear-to-send once the receive is matched,
  then the bulk data.
* ``PDATA`` / ``PRTS`` / ``PCTS`` — partitioned-partition transfers.  These
  carry a *direct reference* to the peer partitioned request (matching was
  performed once at init time), so the receiver never searches a queue —
  the defining software advantage of partitioned communication.
* ``ACK`` — reliable-transport acknowledgement, only exchanged in lossy
  mode (``repro.faults``): confirms receipt of the frame whose sender
  sequence number it echoes in ``seq``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional

from .matching import Envelope

__all__ = ["FrameKind", "Frame"]


class FrameKind(enum.Enum):
    """Discriminator for protocol frames."""

    EAGER = "eager"
    RTS = "rts"
    CTS = "cts"
    RDATA = "rdata"
    PDATA = "pdata"
    PRTS = "prts"
    PCTS = "pcts"
    ACK = "ack"


@dataclass(slots=True)
class Frame:
    """One protocol message.

    Only the fields relevant to the frame's kind are populated:

    * matching frames (EAGER/RTS) carry an :class:`Envelope`;
    * rendezvous frames carry ``sreq`` (sender request) and, on the CTS /
      RDATA legs, the matched receive request ``rreq``;
    * partitioned frames carry ``preq`` (the *receiver-side* partitioned
      request bound at init), ``partition`` and ``epoch``.
    """

    kind: FrameKind
    src_rank: int
    dst_rank: int
    nbytes: int = 0
    envelope: Optional[Envelope] = None
    payload: Any = None
    sreq: Any = None
    rreq: Any = None
    preq: Any = None
    partition: int = -1
    epoch: int = -1
    #: Reliable-transport sequence number (lossy mode only).  -1 means the
    #: frame is untracked; ACK frames echo the acknowledged sequence here.
    seq: int = -1

    def control_size(self) -> int:
        """Bytes this frame occupies on the wire when it is pure control."""
        return 0 if self.kind in (FrameKind.EAGER, FrameKind.RDATA,
                                  FrameKind.PDATA) else 1
