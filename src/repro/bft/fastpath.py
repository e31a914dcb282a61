"""The fast path: speculative execution and read leases behind one seam.

The replica core (:mod:`repro.bft.replica`) runs the paper's protocol —
pre-prepare, prepare, commit, execute — and builds a :class:`FastPath` only
when ``speculative_execution`` or ``read_leases`` is set.  It calls one hook
per event: a batch prepared (:meth:`~FastPath.speculate`), a committed batch
is about to execute (:meth:`~FastPath.promote`), a read-only request
(:meth:`~FastPath.admit_read`), a write is about to be ordered
(:meth:`~FastPath.on_write`), the primary may have drained
(:meth:`~FastPath.grant_lease`), a retransmitted request
(:meth:`~FastPath.resend`), and a boundary — view change, state transfer,
stable checkpoint above ``last_executed`` (:meth:`~FastPath.reset`).
Pipelining is not part of the seam: it is the core's ``max_outstanding``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from repro.bft.messages import Lease, LeaseRevoke, PrePrepare, Request, SpecReply
from repro.util.trace import emit

if TYPE_CHECKING:
    from repro.bft.replica import Replica


class FastPath:
    """One replica's speculation frames and read-lease state."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        self.config = replica.config
        # Open speculation frames, oldest first: (seqno, keys of the requests
        # answered tentatively, batch digest).  Frames are contiguous from
        # last_executed + 1; promotion pops the head, rollback clears all.
        self.frames: List[Tuple[int, List[Tuple[str, int]], bytes]] = []
        # Read lease held by this replica — (view, epoch, min executed
        # seqno) — and, at the primary, the epoch currently granted and not
        # yet revoked.
        self.lease: Optional[Tuple[int, int, int]] = None
        self.granted: Optional[int] = None
        self.epoch = 0

    # -- speculative execution -----------------------------------------------------

    def speculate(self) -> None:
        """Run prepared-but-uncommitted batches tentatively, in order.

        Speculation advances a *tentative* execution pointer ahead of
        ``last_executed``; every speculated batch has an undo frame in the
        service, popped on promotion (its commit certificate arrived) or
        unwound on view change, divergence, or state transfer.  Checkpoint
        boundaries are never speculated: taking a checkpoint freezes state
        that a rollback would have to repudiate, so boundary batches wait for
        their commit certificates and execute on the committed path.
        """
        replica = self.replica
        if not self.config.speculative_execution:
            return
        if replica.view_changes.in_view_change or replica.recovering or replica.transfer.active:
            return
        while not replica._stopped:
            seqno = replica.last_executed + len(self.frames) + 1
            if seqno % self.config.checkpoint_interval == 0:
                return
            if not replica.in_window(seqno):
                return
            slot = replica.log.get(replica.view, seqno)
            if slot is None or slot.pre_prepare is None:
                return
            if slot.executed or slot.spec_executed:
                return
            if not replica.log.prepared(slot, replica.node_id):
                return
            slot.spec_executed = True
            self.frames.append((seqno, [], slot.pre_prepare.batch_digest()))
            replica.service.begin_speculation()
            replica.counters.add("spec_batches")
            replica._execute_batch(slot.pre_prepare, self._reply_tentatively)

    def _reply_tentatively(self, request: Request, result: bytes) -> None:
        self.frames[-1][1].append((request.client_id, request.reqid))
        self.replica.counters.add("spec_replies_sent")
        self._send_spec_reply(request, result)

    def resend(self, request: Request, result: bytes) -> bool:
        """A client retransmitted the request whose reply is recorded as
        ``result``.  True when an open frame recorded it: the reply is then
        resent as a SpecReply, because claiming it committed would let a
        client accept f+1 "committed" replies for a batch that only ever
        prepared, which is unsafe."""
        key = (request.client_id, request.reqid)
        if not any(key in replied for _seqno, replied, _digest in self.frames):
            return False
        self._send_spec_reply(request, result)
        return True

    def _send_spec_reply(self, request: Request, result: bytes) -> None:
        replica = self.replica
        replica.auth_send(
            request.client_id,
            SpecReply(
                view=replica.view,
                reqid=request.reqid,
                client_id=request.client_id,
                replica_id=replica.node_id,
                result=result,
            ),
        )

    def promote(self, seqno: int, pre_prepare: PrePrepare) -> bool:
        """The committed batch at ``seqno`` is about to execute.  True when
        it already ran tentatively: its frame's executions become permanent.
        No replies are resent — the client either accepted the 2f+1
        tentative quorum already, or its retransmission now hits the
        recorded-reply path and gets a committed Reply.  False means the
        caller executes the batch for real; on divergence (the committed
        batch is not the one we ran tentatively, possible only across view
        changes) every frame is undone first."""
        if not self.frames or self.frames[0][0] != seqno:
            return False
        if self.frames[0][2] != pre_prepare.batch_digest():
            self._rollback("divergence")
            return False
        self.frames.pop(0)
        self.replica.service.commit_speculation()
        self.replica.counters.add("spec_promotions")
        return True

    def reset(self, reason: str) -> None:
        """Cross a boundary: tentative executions were ordered before it and
        the state after it may order those seqnos differently (a new view's
        O set) or replace them (a state transfer).  A view change also ends
        every read lease: leases are per-view grants."""
        self._rollback(reason)
        if reason == "view-change":
            self.lease = self.granted = None

    def _rollback(self, reason: str) -> None:
        """Undo every open frame (newest first, inside the service).
        Requests rolled back here were already purged from pending/in-flight
        at speculation time; a client that still wants one will retransmit
        it."""
        if not self.frames:
            return
        replica = self.replica
        rolled = len(self.frames)
        replica.service.rollback_speculation()
        self.frames.clear()
        replica.counters.add("spec_rollbacks")
        replica.counters.add("spec_batches_rolled_back", rolled)
        emit(
            replica.tracer,
            replica.node_id,
            "speculation_rolled_back",
            reason=reason,
            batches=rolled,
        )

    # -- read leases -----------------------------------------------------------------

    def admit_read(self) -> bool:
        """A read-only request asks to be served: grant leases first if we
        are a drained primary, then say whether our current state may
        answer it."""
        self.grant_lease()
        if self.frames:
            # Tentative state must not leak through the read-only path: a
            # speculated write could still be rolled back.  The client's
            # read-only timeout falls back to an ordered request.
            self.replica.counters.add("read_only_deferred")
            return False
        if self.config.read_leases:
            replica, lease = self.replica, self.lease
            if (
                lease is None
                or lease[0] != replica.view
                or replica.last_executed < lease[2]
                or replica.view_changes.in_view_change
            ):
                replica.counters.add("leased_reads_refused")
                return False
            replica.counters.add("leased_reads_served")
        return True

    def grant_lease(self) -> None:
        """Primary: grant a read lease to every replica once the write
        pipeline has fully drained (nothing queued, assigned, or
        speculated).  The grant carries our executed seqno so holders refuse
        to serve until they have caught up to the granted state."""
        replica = self.replica
        if not self.config.read_leases or not replica.is_primary():
            return
        if replica.view_changes.in_view_change or replica.recovering or replica.transfer.active:
            return
        if self.granted is not None or replica.pending or self.frames:
            return
        if replica.next_seqno > replica.last_executed:
            return
        self.epoch += 1
        self.granted = self.epoch
        replica.counters.add("lease_grants")
        self.lease = (replica.view, self.epoch, replica.last_executed)
        replica.auth_multicast(
            Lease(
                view=replica.view,
                epoch=self.epoch,
                seqno=replica.last_executed,
                primary_id=replica.node_id,
            )
        )

    def on_write(self) -> None:
        """A write is about to be ordered, so no lease may outlive it.  The
        primary revokes the lease it granted before proposing; a backup
        drops the one it holds as it accepts the proposal, without waiting
        for the revocation."""
        if not self.config.read_leases:
            return
        replica = self.replica
        if self.granted is not None:
            revoke = LeaseRevoke(
                view=replica.view, epoch=self.granted, primary_id=replica.node_id
            )
            self.granted = self.lease = None
            replica.counters.add("lease_revokes")
            replica.auth_multicast(revoke)
        elif self.lease is not None:
            self.lease = None
            replica.counters.add("leases_self_revoked")

    def on_message(self, message, src: str) -> None:
        """``Lease`` and ``LeaseRevoke`` from the primary."""
        if not self.config.read_leases:
            return
        replica = self.replica
        if not replica.check_auth(message, expected_sender=message.primary_id):
            return
        if src != message.primary_id or message.primary_id != self.config.primary(
            message.view
        ):
            return
        lease = self.lease
        if isinstance(message, Lease):
            if message.view != replica.view or replica.view_changes.in_view_change:
                return
            if lease is not None and (lease[0], lease[1]) >= (message.view, message.epoch):
                return
            self.lease = (message.view, message.epoch, message.seqno)
            replica.counters.add("leases_held")
        elif lease is not None and lease[0] == message.view and lease[1] <= message.epoch:
            self.lease = None
            replica.counters.add("leases_revoked")
