"""Coherence message vocabulary and wire sizes.

The directory protocol exchanges these message kinds.  Sizes follow the
usual convention: a control message is one header flit; a data message
carries a cache line.  Order/Conditional-Order requests additionally
carry the write's data word(s) and, for CO, a word bitmask (paper
§3.3.1–§3.3.2), which we charge as one extra word.
"""

from __future__ import annotations

import enum
import itertools
from typing import Optional


class Msg(enum.Enum):
    # requests (core -> directory)
    GETS = "GetS"              # read miss
    GETX = "GetX"              # write miss / upgrade
    ORDER = "Order"            # GetX with O-bit set (WS+)
    COND_ORDER = "CondOrder"   # GetX with O-bit + word mask (SW+)
    PUTM = "PutM"              # dirty eviction writeback
    GRT_DEPOSIT = "GrtDeposit"     # WeeFence PS deposit
    GRT_WITHDRAW = "GrtWithdraw"   # WeeFence PS removal at fence completion

    # directory -> core
    DATA = "Data"              # line data reply
    ACK = "Ack"                # permission granted, no data needed
    NACK_BOUNCE = "NackBounce" # transaction rejected by a remote BS
    INV = "Inv"                # invalidate request to a sharer
    DOWNGRADE = "Downgrade"    # M -> S request to the owner

    # core -> directory (responses to Inv/Downgrade)
    INV_ACK = "InvAck"
    INV_BOUNCE = "InvBounce"       # BS match with O=0: refuse
    INV_KEEP_SHARER = "InvKeepSharer"  # BS match with O=1: keep me a sharer
    WB_DATA = "WbData"             # dirty data flushed on Inv/Downgrade


# dense per-member index so hot lookup tables (NoC byte counts,
# serialization cycles, latency memos) can be lists indexed by
# ``kind.idx`` instead of dicts hashing the enum member.
for _i, _m in enumerate(Msg):
    _m.idx = _i
del _i, _m


#: header-only messages cost one flit (8 bytes of header), data messages
#: cost header + line.  The paper's links are 256-bit (32B).
HEADER_BYTES = 8


def message_bytes(kind: Msg, line_bytes: int) -> int:
    """Bytes a message of *kind* puts on the network."""
    if kind in (Msg.DATA, Msg.WB_DATA, Msg.PUTM):
        return HEADER_BYTES + line_bytes
    if kind in (Msg.ORDER, Msg.COND_ORDER):
        # carries the update word(s) + (for CO) the word bitmask
        return HEADER_BYTES + 8
    if kind in (Msg.GRT_DEPOSIT, Msg.GRT_WITHDRAW):
        # carries the pending-set addresses (signature-compressed)
        return HEADER_BYTES + 8
    return HEADER_BYTES


_txn_ids = itertools.count(1)


class Transaction:
    """One coherence transaction in flight at the directory.

    The directory serializes transactions per line: while one is in
    flight the line is *busy* and later requests wait in a FIFO.

    A plain ``__slots__`` class (one is allocated per coherence
    transaction, a simulation hot path): no dict, cheap attribute
    access, same keyword constructor a dataclass would generate.
    """

    __slots__ = (
        "kind", "requester", "line", "word_mask", "ordered", "is_retry",
        "txn_id", "pending_acks", "bounced", "keep_sharers",
        "true_sharing_seen", "requester_was_sharer", "granted_exclusive",
        "grant", "on_done",
    )

    def __init__(
        self,
        kind: Msg,
        requester: int,
        line: int,
        word_mask: int = 0,
        ordered: bool = False,
        is_retry: bool = False,
        txn_id: Optional[int] = None,
        pending_acks: int = 0,
        bounced: bool = False,
        keep_sharers: Optional[set] = None,
        true_sharing_seen: bool = False,
        requester_was_sharer: bool = False,
        granted_exclusive: bool = False,
        grant: Optional[int] = None,
        on_done: Optional[object] = None,
    ):
        self.kind = kind
        self.requester = requester
        self.line = line
        #: word bitmask being written (CO requests; 0 otherwise)
        self.word_mask = word_mask
        #: True if this request's O bit is set (Order / CondOrder)
        self.ordered = ordered
        #: is this a retry of a previously bounced request?
        self.is_retry = is_retry
        self.txn_id = next(_txn_ids) if txn_id is None else txn_id
        # bookkeeping while invalidations are outstanding
        self.pending_acks = pending_acks
        self.bounced = bounced
        #: cores to keep as sharers (BS matches on Order/CO; the evictor
        #: on a keep-sharer PutM)
        self.keep_sharers = keep_sharers
        self.true_sharing_seen = true_sharing_seen
        #: did the requester hold an S copy when processing began?
        self.requester_was_sharer = requester_was_sharer
        #: GetS answered with an Exclusive grant
        self.granted_exclusive = granted_exclusive
        #: PutM: ``txn_id`` of the grant that made the evictor the owner
        self.grant = grant
        #: completion callback, called as on_done(reply_kind, txn)
        self.on_done = on_done

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"<Txn#{self.txn_id} {self.kind.value} P{self.requester} "
                f"line={self.line:#x}>")
