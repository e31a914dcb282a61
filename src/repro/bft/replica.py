"""BFT replica: normal-case operation.

Implements the three-phase PBFT ordering protocol (pre-prepare / prepare /
commit) with request batching, at-most-once execution per client, periodic
checkpoints with 2f+1 certificates, log garbage collection, and a
status-gossip retransmission channel that lets lagging replicas catch up.
View changes, state transfer, proactive recovery and the optional fast path
(:mod:`repro.bft.fastpath`) live in sibling modules and are wired in here.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.bft.config import BFTConfig
from repro.bft.fastpath import FastPath
from repro.bft.log import MessageLog, Slot
from repro.bft.messages import (
    Busy,
    Checkpoint,
    CheckpointCert,
    Commit,
    FetchMeta,
    FetchObject,
    FetchRoot,
    FusionBlock,
    FusionFetch,
    Lease,
    LeaseRevoke,
    MetaReply,
    Message,
    NewView,
    ObjectReply,
    ParityAck,
    Prepare,
    PrePrepare,
    Recovered,
    Recovering,
    Reply,
    Request,
    RetransmitCommitted,
    Status,
    TransferRoot,
    ViewChange,
)
from repro.bft.overload import AdmissionOutcome, AdmissionQueue
from repro.bft.service import StateMachine
from repro.bft.statetransfer import StateTransferManager
from repro.bft.viewchange import ViewChangeManager
from repro.crypto.auth import KeyTable, MacVerificationError
from repro.crypto.sign import SignatureScheme
from repro.net.network import Network
from repro.net.node import Node
from repro.net.simulator import Simulator
from repro.util.errors import FaultInjected
from repro.util.stats import Counters
from repro.util.trace import Tracer, emit

#: How many request-timer periods back a commit may lie and still count as
#: "the primary is alive, just saturated" for anti-storm damping.  A valid
#: timer firing proves no commit landed within the current period (execution
#: re-arms the timer), so the window must exceed one period to be satisfiable.
DAMPING_WINDOW_FACTOR = 2.0


class Replica(Node):
    """One BFT replica, driving a deterministic :class:`StateMachine`."""

    def __init__(
        self,
        replica_id: str,
        sim: Simulator,
        network: Network,
        config: BFTConfig,
        service: StateMachine,
        keys: KeyTable,
        sigs: SignatureScheme,
        takeover: bool = False,
    ) -> None:
        super().__init__(replica_id, sim, network, takeover=takeover)
        if replica_id not in config.replica_ids:
            raise ValueError(f"{replica_id!r} not in config.replica_ids")
        self.config = config
        self.service = service
        self.keys = keys
        self.sigs = sigs
        self.signer = sigs.keygen(replica_id)
        self.counters = Counters()

        # Protocol state.
        self.view = 0
        self.next_seqno = 0  # primary's last assigned seqno
        self.last_executed = 0
        self.stable_seqno = 0
        self.stable_cert: Optional[CheckpointCert] = None
        self.log = MessageLog(config)
        self.committed: Dict[int, PrePrepare] = {}
        self.checkpoint_votes: Dict[int, Dict[str, Checkpoint]] = {}
        self.own_checkpoints: Dict[int, Checkpoint] = {}
        # Bounded admission queue: client requests only, deterministic
        # shedding (per-client cap, fair drop-newest, TTL expiry) — protocol
        # messages never pass through it.  See repro.bft.overload.
        self.pending = AdmissionQueue(
            config.admission_capacity,
            config.admission_per_client,
            config.pending_ttl,
        )
        self.in_flight: set = set()  # (client, reqid) already in a pre-prepare
        self.recovering = False
        # Fused-backup tier hook: host-resident FusionFeeder (survives
        # reboots; relinked by ReplicaHost).  See repro.bft.fusion.
        self.fusion_feeder = None
        self.on_recovered = None  # hook set by ReplicaHost for WoV accounting
        self.on_crashed = None  # hook set by the fault-containment supervisor
        self.crash_reason = ""
        self.crash_seqno = 0  # ordering position being executed when we died
        self.tracer: Tracer = None  # type: ignore[assignment]  # optional, set by the deployment

        # Speculation and read leases (repro.bft.fastpath): absent unless
        # the configuration turns one of them on.
        self.fast_path: Optional[FastPath] = None
        if config.speculative_execution or config.read_leases:
            self.fast_path = FastPath(self)

        # The genesis state is an implicitly certified checkpoint: label it 0
        # so this replica can serve it to recovering peers before the first
        # real checkpoint stabilizes.  A replica rebuilt from disk whose
        # state is no longer pristine must not claim to hold genesis.
        if not service.checkpoint_seqnos():
            if service.current_node(0, 0)[1] == service.genesis_root_digest():
                service.take_checkpoint(0)

        # Managers.
        self.view_changes = ViewChangeManager(self)
        self.transfer = StateTransferManager(self)

        self._request_deadline: Optional[float] = None
        # Anti-view-change-storm damping state (docs/overload.md): when this
        # replica last advanced last_executed (-inf = never), and how long the
        # oldest queued request has been starving across damped firings.
        self._last_commit_time = float("-inf")
        self._last_primary_seen = float("-inf")
        self._damped_streak = 0
        self._damp_oldest: Optional[tuple] = None
        self._relayed_once = False
        self._start_status_loop()

    # -- identity helpers ---------------------------------------------------------

    @property
    def replica_id(self) -> str:
        return self.node_id

    def is_primary(self) -> bool:
        return self.config.primary(self.view) == self.node_id

    def other_replicas(self) -> List[str]:
        return [r for r in self.config.replica_ids if r != self.node_id]

    def in_window(self, seqno: int) -> bool:
        return self.stable_seqno < seqno <= self.stable_seqno + self.config.log_window

    # -- authenticated send helpers --------------------------------------------------

    def auth_multicast(self, message: Message) -> None:
        # signable_bytes() caches on first call, so the whole MAC vector and
        # every per-recipient send below reuse one serialization.
        payload = message.signable_bytes()
        message.auth = self.keys.make_authenticator(  # type: ignore[attr-defined]
            self.node_id, self.config.replica_ids, payload
        )
        self.counters.add("auth_broadcasts")
        self.multicast(self.other_replicas(), message)

    def auth_send(self, dst: str, message: Message) -> None:
        message.auth = self.keys.make_authenticator(  # type: ignore[attr-defined]
            self.node_id, [dst], message.signable_bytes()
        )
        self.send(dst, message)

    def check_auth(self, message: Message, expected_sender: Optional[str] = None) -> bool:
        """Verify the MAC authenticator; when ``expected_sender`` is given,
        also bind the key owner to the identity the message claims (a client
        must not be able to wrap someone else's request in its own MACs)."""
        auth = getattr(message, "auth", None)
        if auth is None:
            self.counters.add("auth_missing")
            return False
        if expected_sender is not None and auth.sender != expected_sender:
            self.counters.add("auth_wrong_principal")
            return False
        try:
            self.keys.check_authenticator(auth, self.node_id, message.signable_bytes())
        except MacVerificationError:
            self.counters.add("auth_failed")
            return False
        return True

    # -- message dispatch ---------------------------------------------------------------

    def on_message(self, message: Message, src: str) -> None:
        if src == self.config.primary(self.view):
            # Any traffic from the current primary — pre-prepares, status
            # gossip, checkpoints — is evidence it is alive; anti-storm
            # damping only holds back a view change while this is fresh.
            self._last_primary_seen = self.now()
        if isinstance(message, Request):
            self.on_request(message, src)
        elif isinstance(message, PrePrepare):
            self.on_pre_prepare(message, src)
        elif isinstance(message, Prepare):
            self.on_prepare(message, src)
        elif isinstance(message, Commit):
            self.on_commit(message, src)
        elif isinstance(message, Checkpoint):
            self.on_checkpoint(message, src)
        elif isinstance(message, Status):
            self.on_status(message, src)
        elif isinstance(message, CheckpointCert):
            self.on_checkpoint_cert(message, src)
        elif isinstance(message, RetransmitCommitted):
            self.on_retransmit(message, src)
        elif isinstance(message, (Lease, LeaseRevoke)):
            if self.fast_path is not None:
                self.fast_path.on_message(message, src)
        elif isinstance(message, (ViewChange, NewView)):
            self.view_changes.on_message(message, src)
        elif isinstance(message, (FetchRoot, FetchMeta, FetchObject)):
            self.on_fetch(message, src)
        elif isinstance(message, (TransferRoot, MetaReply, ObjectReply)):
            self.transfer.on_message(message, src)
        elif isinstance(message, (Recovering, Recovered)):
            self.counters.add(f"peer_{type(message).__name__.lower()}")
        elif isinstance(message, FusionFetch):
            self.on_fusion_fetch(message, src)
        elif isinstance(message, ParityAck):
            self.on_parity_ack(message, src)
        else:
            self.counters.add("unknown_message")

    # -- client requests ------------------------------------------------------------------

    def on_request(self, request: Request, src: str) -> None:
        if not self.check_auth(request, expected_sender=request.client_id):
            return
        key = (request.client_id, request.reqid)
        recorded = self.service.last_recorded(request.client_id)
        if recorded is not None and request.reqid <= recorded[0]:
            if request.reqid == recorded[0]:
                # Retransmission of the latest executed request: resend the
                # recorded reply (at-most-once semantics).
                if self.fast_path is None or not self.fast_path.resend(request, recorded[1]):
                    self.send_reply(request, recorded[1])
            self.counters.add("duplicate_requests")
            return
        if request.read_only:
            self._execute_read_only(request)
            return
        if key in self.in_flight:
            # Already assigned to a sequence number; the reply will come.
            return
        outcome = self.pending.admit(request, self.now())
        self._account_admission(outcome)
        if self.view_changes.in_view_change or self.recovering:
            return
        if outcome.shed:
            self._send_busy(request)
            return
        self._arm_request_timer()
        if self.is_primary():
            self.try_send_pre_prepare()

    def _account_admission(self, outcome: AdmissionOutcome) -> None:
        if outcome.expired:
            self.counters.add("pending_expired", len(outcome.expired))
        if outcome.evicted is not None:
            self.counters.add("pending_evicted")
        if outcome.shed:
            # Shed arrivals also count as evictions from the bounded queue:
            # `pending_evicted` is the memory bound at work on any replica,
            # `requests_shed` breaks out why the arrival was refused.
            self.counters.add("pending_evicted")
            self.counters.add("requests_shed")
            self.counters.add("requests_shed_" + outcome.shed_reason)

    def _send_busy(self, request: Request) -> None:
        """Primary-only load-shed notice: proves we are alive and suggests a
        retry delay scaled by queue fill (congestion-aware backoff hint)."""
        if not self.is_primary():
            return
        fill = len(self.pending) / self.pending.capacity
        hint = self.config.client_retry_max * (1.0 + fill)
        busy = Busy(
            view=self.view,
            reqid=request.reqid,
            client_id=request.client_id,
            replica_id=self.node_id,
            retry_after_micros=int(hint * 1_000_000),
        )
        self.counters.add("busy_replies")
        self.auth_send(request.client_id, busy)

    def crash_self(self, reason: str) -> None:
        """The wrapped implementation died (aging, deterministic bug): this
        replica is now a crashed replica until rebooted.

        Records the crash reason and the ordering position being executed
        (``last_executed + 1``) so the fault-containment supervisor can
        classify crash loops, then notifies it via the ``on_crashed`` hook."""
        self.crash_reason = reason
        self.crash_seqno = self.last_executed + 1
        self.counters.add("implementation_crashes")
        emit(
            self.tracer,
            self.node_id,
            "implementation_crash",
            reason=reason,
            seqno=self.crash_seqno,
        )
        self.stop()
        self.network.set_down(self.node_id, True)
        if self.on_crashed is not None:
            self.on_crashed(reason, self.crash_seqno)

    def _execute_read_only(self, request: Request) -> None:
        if self.view_changes.in_view_change or self.recovering:
            return
        if self.fast_path is not None and not self.fast_path.admit_read():
            return
        try:
            result = self.service.execute(
                request.op, request.client_id, b"", read_only=True
            )
        except FaultInjected as fault:
            self.crash_self(str(fault))
            return
        self.counters.add("read_only_executed")
        self.send_reply(request, result, read_only=True)

    def send_reply(self, request: Request, result: bytes, read_only: bool = False) -> None:
        self.auth_send(
            request.client_id,
            Reply(
                view=self.view,
                reqid=request.reqid,
                client_id=request.client_id,
                replica_id=self.node_id,
                result=result,
                read_only=read_only,
            ),
        )

    # -- primary: batching and pre-prepare ---------------------------------------------------

    def try_send_pre_prepare(self) -> None:
        if not self.is_primary() or self.view_changes.in_view_change or self.recovering:
            return
        if self.fast_path is not None and self.pending:
            self.fast_path.on_write()
        while self.pending:
            next_seqno = self.next_seqno + 1
            if not self.in_window(next_seqno):
                return
            if next_seqno - self.last_executed > self.config.max_outstanding:
                return  # pipeline full; later arrivals will batch up
            batch: List[Request] = []
            for key in list(self.pending):
                if len(batch) >= self.config.batch_max:
                    break
                batch.append(self.pending.pop(key))
            if not batch:
                return
            nondet = self.service.propose_nondet()
            pre_prepare = PrePrepare(
                view=self.view,
                seqno=next_seqno,
                requests=batch,
                nondet=nondet,
                primary_id=self.node_id,
            )
            pre_prepare.sig = self.signer.sign(pre_prepare.signable_bytes())
            self.next_seqno = next_seqno
            slot = self.log.slot(self.view, next_seqno)
            slot.pre_prepare = pre_prepare
            for request in batch:
                self.in_flight.add((request.client_id, request.reqid))
            self.counters.add("pre_prepares_sent")
            self.counters.add("batched_requests", len(batch))
            self.auth_multicast(pre_prepare)
            self._maybe_commit(slot)

    # -- backups: three-phase ordering ----------------------------------------------------------

    def on_pre_prepare(self, pre_prepare: PrePrepare, src: str) -> None:
        if not self.check_auth(pre_prepare):
            return
        if pre_prepare.view != self.view or self.view_changes.in_view_change:
            self.counters.add("pre_prepare_wrong_view")
            return
        if pre_prepare.primary_id != self.config.primary(pre_prepare.view):
            self.counters.add("pre_prepare_wrong_primary")
            return
        if src != pre_prepare.primary_id:
            self.counters.add("pre_prepare_relayed")
            return
        if not self.in_window(pre_prepare.seqno):
            self.counters.add("pre_prepare_out_of_window")
            return
        if not self.sigs.verify(
            pre_prepare.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
        ):
            self.counters.add("pre_prepare_bad_sig")
            return
        for request in pre_prepare.requests:
            if request.read_only:
                self.counters.add("pre_prepare_readonly_request")
                return
            # A Byzantine primary must not be able to fabricate requests on
            # behalf of clients: every batched request carries the client's
            # own authenticator, verified here by each backup.
            if not self.check_auth(request, expected_sender=request.client_id):
                self.counters.add("pre_prepare_bad_request")
                return
        if not self.service.check_nondet(pre_prepare.nondet):
            self.counters.add("pre_prepare_bad_nondet")
            return
        self.accept_pre_prepare(pre_prepare)

    def accept_pre_prepare(self, pre_prepare: PrePrepare) -> None:
        """Log a valid pre-prepare and answer it with a prepare (backups)."""
        slot = self.log.slot(pre_prepare.view, pre_prepare.seqno)
        if slot.pre_prepare is not None:
            if slot.pre_prepare.batch_digest() != pre_prepare.batch_digest():
                self.counters.add("conflicting_pre_prepare")
            return
        slot.pre_prepare = pre_prepare
        if self.fast_path is not None and pre_prepare.requests:
            self.fast_path.on_write()
        # Remove batched requests from our pending queue; they are in flight.
        # Requests we already executed (e.g. a new-view O re-proposing work
        # from before we were partitioned away) are *not* in flight for us:
        # their ordering instance may never complete again, and a stale
        # tracking entry would keep our request timer firing forever.
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            self.pending.pop(key, None)
            recorded = self.service.last_recorded(request.client_id)
            if recorded is not None and request.reqid <= recorded[0]:
                continue
            self.in_flight.add(key)
        if not slot.sent_prepare and pre_prepare.primary_id != self.node_id:
            prepare = Prepare(
                view=pre_prepare.view,
                seqno=pre_prepare.seqno,
                digest=pre_prepare.batch_digest(),
                replica_id=self.node_id,
            )
            prepare.sig = self.signer.sign(prepare.signable_bytes())
            slot.prepares[self.node_id] = prepare
            slot.sent_prepare = True
            self.counters.add("prepares_sent")
            self.auth_multicast(prepare)
        self._maybe_commit(slot)

    def on_prepare(self, prepare: Prepare, src: str) -> None:
        if not self.check_auth(prepare):
            return
        if src != prepare.replica_id or prepare.replica_id not in self.config.replica_ids:
            return
        if prepare.replica_id == self.config.primary(prepare.view):
            self.counters.add("prepare_from_primary")
            return
        if (
            self.view_changes.in_view_change
            and prepare.view < self.view_changes.pending_view
        ):
            # OSDI'99 section 4.4: once we sent VIEW-CHANGE for v' our
            # prepared set for older views is frozen as reported — letting a
            # late prepare grow it now would create certificates the
            # in-flight view-change messages do not carry, and the new
            # view's O computation could then silently drop a batch that
            # goes on to commit (prepares for views >= v' are still
            # recorded: they belong to the view being installed).
            self.counters.add("prepare_during_view_change")
            return
        if not self.in_window(prepare.seqno):
            return
        if not self.sigs.verify(prepare.replica_id, prepare.signable_bytes(), prepare.sig):
            self.counters.add("prepare_bad_sig")
            return
        slot = self.log.slot(prepare.view, prepare.seqno)
        slot.prepares.setdefault(prepare.replica_id, prepare)
        self._maybe_commit(slot)

    def _maybe_commit(self, slot: Slot) -> None:
        if slot.view != self.view or slot.sent_commit:
            return
        if self.view_changes.in_view_change:
            # No commits for the old view after our VIEW-CHANGE went out:
            # the vote would be invisible to the view change in progress.
            return
        if not self.log.prepared(slot, self.node_id):
            return
        commit = Commit(
            view=slot.view,
            seqno=slot.seqno,
            digest=slot.digest() or b"",
            replica_id=self.node_id,
        )
        commit.sig = self.signer.sign(commit.signable_bytes())
        slot.commits[self.node_id] = commit
        slot.sent_commit = True
        self.counters.add("commits_sent")
        self.auth_multicast(commit)
        self._maybe_execute(slot)
        if self.fast_path is not None:
            self.fast_path.speculate()

    def on_commit(self, commit: Commit, src: str) -> None:
        if not self.check_auth(commit):
            return
        if src != commit.replica_id or commit.replica_id not in self.config.replica_ids:
            return
        if (
            self.view_changes.in_view_change
            and commit.view < self.view_changes.pending_view
        ):
            # Same freeze as prepares: old-view commits must not complete
            # certificates behind the back of an in-progress view change.
            self.counters.add("commit_during_view_change")
            return
        if not self.in_window(commit.seqno):
            return
        slot = self.log.slot(commit.view, commit.seqno)
        slot.commits.setdefault(commit.replica_id, commit)
        self._maybe_execute(slot)

    def _maybe_execute(self, slot: Slot) -> None:
        if slot.executed or slot.pre_prepare is None:
            return
        if not self.log.committed_local(slot, self.node_id):
            return
        slot.executed = True
        self.committed[slot.seqno] = slot.pre_prepare
        self.counters.add("committed_batches")
        if slot.seqno <= self.last_executed:
            # Re-proposal of an already-executed batch (view change / state
            # transfer overlap): it will never run through _execute_batch, so
            # release its request-tracking entries here.
            self._clear_request_tracking(slot.pre_prepare)
            self._rearm_request_timer()
        self.execute_ready()

    def _clear_request_tracking(self, pre_prepare: PrePrepare) -> None:
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            self.pending.pop(key, None)
            self.in_flight.discard(key)

    # -- in-order execution ------------------------------------------------------------------------

    def execute_ready(self) -> None:
        """Execute committed batches in sequence-number order."""
        while (self.last_executed + 1) in self.committed:
            seqno = self.last_executed + 1
            pre_prepare = self.committed[seqno]
            if self.fast_path is None or not self.fast_path.promote(seqno, pre_prepare):
                self._execute_batch(pre_prepare)
            self.last_executed = seqno
            self._last_commit_time = self.now()
            self._relayed_once = False
            if seqno % self.config.checkpoint_interval == 0:
                self._take_checkpoint(seqno)
        self._rearm_request_timer()
        if self.fast_path is not None:
            self.fast_path.speculate()
        if self.is_primary():
            self.try_send_pre_prepare()
            if self.fast_path is not None:
                self.fast_path.grant_lease()

    def _execute_batch(self, pre_prepare: PrePrepare, reply: Optional[Callable] = None) -> None:
        """Run a batch's requests in order; ``reply(request, result)``
        answers each one (default: a committed :class:`Reply`)."""
        reply = reply or self.send_reply
        for request in pre_prepare.requests:
            key = (request.client_id, request.reqid)
            recorded = self.service.last_recorded(request.client_id)
            if recorded is not None and request.reqid <= recorded[0]:
                self.counters.add("skipped_duplicates")
                self._purge_superseded(request.client_id, request.reqid)
                self.in_flight.discard(key)
                continue
            try:
                result = self.service.execute(
                    request.op, request.client_id, pre_prepare.nondet, read_only=False
                )
            except FaultInjected as fault:
                self.crash_self(str(fault))
                return
            self.counters.add("requests_executed")
            self.service.record_reply(request.client_id, request.reqid, result)
            self._purge_superseded(request.client_id, request.reqid)
            self.in_flight.discard(key)
            reply(request, result)

    def _purge_superseded(self, client_id: str, reqid: int) -> None:
        """Executing reqid ``r`` for a client makes every queued reqid <= r
        unexecutable (at-most-once): drop them so a fully caught-up replica's
        request timer is not pinned by requests that can never commit."""
        stale = self.pending.purge_superseded(client_id, reqid)
        if len(stale) > 1:
            # The executed key itself is expected; extra drops are accounted.
            self.counters.add("pending_superseded", len(stale) - 1)

    # -- checkpoints -----------------------------------------------------------------------------------

    def _take_checkpoint(self, seqno: int) -> None:
        if self.transfer.active:
            # A transfer session is patching the live tree toward its anchor
            # certificate; a checkpoint taken mid-install would mix the two
            # states and certify a digest no correct replica ever held.
            self.counters.add("checkpoints_skipped_mid_transfer")
            return
        try:
            state_digest = self.service.take_checkpoint(seqno)
        except FaultInjected as fault:
            self.crash_self(str(fault))
            return
        checkpoint = Checkpoint(
            seqno=seqno, state_digest=state_digest, replica_id=self.node_id
        )
        checkpoint.sig = self.signer.sign(checkpoint.signable_bytes())
        self.own_checkpoints[seqno] = checkpoint
        self.counters.add("checkpoints_sent")
        self._record_checkpoint_vote(checkpoint)
        self.auth_multicast(checkpoint)

    def on_checkpoint(self, checkpoint: Checkpoint, src: str) -> None:
        if not self.check_auth(checkpoint):
            return
        if src != checkpoint.replica_id or checkpoint.replica_id not in self.config.replica_ids:
            return
        if checkpoint.seqno <= self.stable_seqno:
            return
        if not self.sigs.verify(
            checkpoint.replica_id, checkpoint.signable_bytes(), checkpoint.sig
        ):
            self.counters.add("checkpoint_bad_sig")
            return
        self._record_checkpoint_vote(checkpoint)

    def _record_checkpoint_vote(self, checkpoint: Checkpoint) -> None:
        votes = self.checkpoint_votes.setdefault(checkpoint.seqno, {})
        votes[checkpoint.replica_id] = checkpoint
        matching = [
            c for c in votes.values() if c.state_digest == checkpoint.state_digest
        ]
        if len(matching) >= self.config.quorum:
            cert = CheckpointCert(
                seqno=checkpoint.seqno,
                state_digest=checkpoint.state_digest,
                proof=sorted(matching, key=lambda c: c.replica_id)[: self.config.quorum],
            )
            self._mark_stable(cert)

    def _mark_stable(self, cert: CheckpointCert) -> None:
        """Advance the stable checkpoint and garbage-collect."""
        if cert.seqno <= self.stable_seqno:
            return
        self.stable_cert = cert
        self.stable_seqno = cert.seqno
        self.log.collect_below(cert.seqno)
        for seqno in [s for s in self.committed if s <= cert.seqno]:
            del self.committed[seqno]
        for seqno in [s for s in self.checkpoint_votes if s <= cert.seqno]:
            del self.checkpoint_votes[seqno]
        for seqno in [s for s in self.own_checkpoints if s < cert.seqno]:
            del self.own_checkpoints[seqno]
        if self.last_executed >= cert.seqno:
            floor = cert.seqno
            if self.fusion_feeder is not None:
                # Diff against the previous stable checkpoint (still live —
                # we have not discarded yet) and pin garbage collection at
                # the oldest checkpoint a fused node's parity stands at, so
                # full-block resyncs and reconstruction fetches always find
                # their target.
                self.fusion_feeder.on_stable(self, cert)
                floor = min(floor, self.fusion_feeder.gc_floor(cert.seqno))
            self.service.discard_checkpoints_below(floor)
        self.counters.add("stable_checkpoints")
        emit(self.tracer, self.node_id, "checkpoint_stable", seqno=cert.seqno)
        # If the quorum certified state we never executed, we are behind:
        # the ordering messages for it may already be garbage-collected.
        if self.last_executed < cert.seqno:
            if self.fast_path is not None:
                self.fast_path.reset("state-transfer")
            self.transfer.start(cert)
        if self.is_primary():
            self.try_send_pre_prepare()

    def on_checkpoint_cert(self, cert: CheckpointCert, src: str) -> None:
        if not self._verify_checkpoint_cert(cert):
            self.counters.add("bad_checkpoint_cert")
            return
        self._mark_stable(cert)

    def _verify_checkpoint_cert(self, cert: CheckpointCert) -> bool:
        if cert.seqno == 0:
            # Genesis needs no proof: its digest is a pure function of the
            # abstract specification, known to every replica a priori.
            return cert.state_digest == self.service.genesis_root_digest()
        senders = set()
        for checkpoint in cert.proof:
            if checkpoint.seqno != cert.seqno:
                return False
            if checkpoint.state_digest != cert.state_digest:
                return False
            if checkpoint.replica_id not in self.config.replica_ids:
                return False
            if not self.sigs.verify(
                checkpoint.replica_id, checkpoint.signable_bytes(), checkpoint.sig
            ):
                return False
            senders.add(checkpoint.replica_id)
        return len(senders) >= self.config.quorum

    # -- liveness timers ---------------------------------------------------------------------------------

    def _arm_request_timer(self) -> None:
        if self._request_deadline is not None:
            return
        if not self.pending and not self.in_flight:
            return
        if self.view_changes.in_view_change:
            return
        deadline = self.now() + self.view_changes.current_timeout()
        self._request_deadline = deadline
        self.set_timer(
            self.view_changes.current_timeout(), lambda: self._request_timer_fired(deadline)
        )

    def _rearm_request_timer(self) -> None:
        self._request_deadline = None
        self._arm_request_timer()

    def _request_timer_fired(self, deadline: float) -> None:
        if self._request_deadline != deadline:
            return
        self._request_deadline = None
        expired = self.pending.expire_stale(self.now())
        if expired:
            # Abandoned requests (client cancelled, or satisfied via another
            # replica's path) must not pin the timer into a view change.
            self.counters.add("pending_expired", len(expired))
        stalled = bool(self.pending or self.in_flight)
        if stalled and not self.view_changes.in_view_change and not self.recovering:
            if self._should_damp():
                self.counters.add("view_changes_damped")
                self._arm_request_timer()
                return
            if self._relay_pending():
                self._arm_request_timer()
                return
            self._damped_streak = 0
            self._damp_oldest = None
            self.counters.add("request_timeouts")
            self.view_changes.start(self.view + 1)
        else:
            self._damped_streak = 0
            self._damp_oldest = None
            self._arm_request_timer()

    def _relay_pending(self) -> bool:
        """PBFT request relay (OSDI'99 section 4.4): before blaming the
        primary, a backup whose timer expired forwards its oldest *abandoned*
        queued requests — ones whose client has stopped retransmitting, so
        the primary (which shed them under load, or never saw the multicast)
        will not hear them from anyone else.  Requests a live client still
        retransmits are not worth delaying a view change for.  One shot per
        stall: if relaying does not restore progress by the next firing, the
        view change proceeds."""
        if self.is_primary() or self._relayed_once or not self.pending:
            return False
        # "Abandoned" = not refreshed within 1.5x the client's *initial* retry
        # interval: a client that still wants the reply and believes the
        # primary faulty is in its early, fast retransmission stages, so its
        # entry stays fresher than this.  (Deep-backoff clients can be
        # misclassified; a redundant relay is harmless — the primary dedups.)
        abandoned = self.pending.abandoned_requests(
            self.now(), 1.5 * self.config.client_retry, self.config.batch_max
        )
        if not abandoned:
            return False
        self._relayed_once = True
        primary = self.config.primary(self.view)
        for request in abandoned:
            self.send(primary, request)
        self.counters.add("requests_relayed", len(abandoned))
        return True

    def _should_damp(self) -> bool:
        """A busy-but-alive cluster is not a faulty one: while commits keep
        landing (even slower than one timer period apart), stretch our
        patience instead of starting a view change (anti-storm damping).
        "Recent" means within ``DAMPING_WINDOW_FACTOR`` timer periods — a
        valid timer firing already proves no commit landed in the *current*
        period, so the window must look further back to distinguish a slow
        primary from a dead one.  The escape hatch: if the *same* oldest
        queued request starves across ``overload_damping_max`` consecutive
        damped firings, the primary is making progress while discriminating
        against someone — view-change anyway."""
        if not self.config.overload_damping:
            return False
        if 2 * len(self.pending) < self.pending.capacity:
            # No local overload evidence: a near-empty admission queue means
            # the stall is about one slow request, not saturation — treat the
            # timeout at face value (a crash-looping primary must not hide
            # behind damping meant for saturated-but-healthy clusters).
            return False
        window = DAMPING_WINDOW_FACTOR * self.view_changes.current_timeout()
        if self.now() - self._last_commit_time > window:
            return False
        if not self.is_primary() and self.now() - self._last_primary_seen > window:
            # Commits were recent but the primary has gone silent: that is a
            # dead primary with residual pipeline drain, not a busy one.
            return False
        if self.pending:
            marker = ("pending", self.pending.oldest_key())
        else:
            marker = ("in-flight", min(self.in_flight))
        if marker == self._damp_oldest:
            self._damped_streak += 1
        else:
            self._damped_streak = 1
            self._damp_oldest = marker
        return self._damped_streak <= self.config.overload_damping_max

    # -- status gossip and retransmission ---------------------------------------------------------------------

    def _start_status_loop(self) -> None:
        def tick() -> None:
            self._send_status()
            self.set_timer(self.config.status_interval, tick)

        self.set_timer(self.config.status_interval, tick)

    def _send_status(self) -> None:
        if self.recovering:
            return
        status = Status(
            replica_id=self.node_id,
            view=self.view,
            stable_seqno=self.stable_seqno,
            last_executed=self.last_executed,
            in_view_change=self.view_changes.in_view_change,
        )
        self.counters.add("status_sent")
        self.auth_multicast(status)

    def on_status(self, status: Status, src: str) -> None:
        if not self.check_auth(status) or src != status.replica_id:
            return
        # Peer is in an older view: help it catch up with our new-view proof.
        if status.view < self.view:
            self.view_changes.retransmit_view_proof(src)
        # Peer's checkpoint lags ours: hand it our stable certificate.
        if status.stable_seqno < self.stable_seqno and self.stable_cert is not None:
            self.auth_send(src, self.stable_cert)
        # We are the primary and the peer may have missed pre-prepares for
        # slots still being ordered (e.g. it was mid-view-change when they
        # were multicast): resend them.
        if (
            status.view == self.view
            and self.is_primary()
            and not self.view_changes.in_view_change
        ):
            for slot in self.log.slots_for_view(self.view):
                if (
                    slot.pre_prepare is not None
                    and not slot.executed
                    and slot.seqno > status.last_executed
                ):
                    self.send(src, slot.pre_prepare)
        # Peer missed executions that are still in our log: retransmit the
        # committed pre-prepares plus commit certificates.
        if status.last_executed < self.last_executed:
            entries = []
            for seqno in range(status.last_executed + 1, self.last_executed + 1):
                if len(entries) >= 8:
                    break
                pre_prepare = self.committed.get(seqno)
                if pre_prepare is None:
                    continue
                slot = self.log.get(pre_prepare.view, seqno)
                if slot is None:
                    continue
                commits = slot.matching_commits()
                if len({c.replica_id for c in commits}) >= self.config.quorum:
                    entries.append(
                        (pre_prepare, slot.matching_prepares(), commits)
                    )
            if entries:
                self.counters.add("retransmissions")
                self.auth_send(src, RetransmitCommitted(replica_id=self.node_id, entries=entries))

    def on_retransmit(self, message: RetransmitCommitted, src: str) -> None:
        if not self.check_auth(message) or src != message.replica_id:
            return
        for pre_prepare, prepares, commits in message.entries:
            if pre_prepare.seqno <= self.last_executed:
                continue
            if not self.in_window(pre_prepare.seqno):
                continue
            expected_primary = self.config.primary(pre_prepare.view)
            if pre_prepare.primary_id != expected_primary:
                continue
            if not self.sigs.verify(
                pre_prepare.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
            ):
                continue
            slot = self.log.slot(pre_prepare.view, pre_prepare.seqno)
            if slot.pre_prepare is None:
                slot.pre_prepare = pre_prepare
            digest = pre_prepare.batch_digest()
            for prepare in prepares:
                if prepare.digest != digest or prepare.seqno != pre_prepare.seqno:
                    continue
                if prepare.replica_id not in self.config.replica_ids:
                    continue
                if prepare.replica_id == pre_prepare.primary_id:
                    continue
                # Prepares are signed, so they remain verifiable across
                # session-key refreshes.
                if not self.sigs.verify(
                    prepare.replica_id, prepare.signable_bytes(), prepare.sig
                ):
                    continue
                slot.prepares.setdefault(prepare.replica_id, prepare)
            for commit in commits:
                if commit.digest != digest or commit.replica_id not in self.config.replica_ids:
                    continue
                # Relayed commits are verified by signature: MAC tags made
                # for our pre-recovery key epoch would no longer check.
                if not self.sigs.verify(
                    commit.replica_id, commit.signable_bytes(), commit.sig
                ):
                    continue
                slot.commits.setdefault(commit.replica_id, commit)
            self._maybe_execute(slot)

    # -- state transfer donor side -----------------------------------------------------------------------------

    def on_fetch(self, message: Message, src: str) -> None:
        try:
            self._serve_fetch(message, src)
        except FaultInjected as fault:
            self.crash_self(str(fault))

    def _serve_fetch(self, message: Message, src: str) -> None:
        if isinstance(message, FetchRoot):
            if (
                self.stable_cert is not None
                and self.stable_cert.seqno >= message.min_seqno
                and self.last_executed >= self.stable_cert.seqno
            ):
                self.send(src, TransferRoot(replica_id=self.node_id, cert=self.stable_cert))
            elif self.stable_cert is None and 0 in self.service.checkpoint_seqnos():
                # No certified checkpoint yet: offer the implicit genesis one.
                genesis = CheckpointCert(
                    seqno=0, state_digest=self.service.genesis_root_digest(), proof=[]
                )
                self.send(src, TransferRoot(replica_id=self.node_id, cert=genesis))
        elif isinstance(message, FetchMeta):
            children = self.service.get_meta(message.min_seqno, message.level, message.index)
            if children is not None:
                self.counters.add("meta_served")
                self.send(
                    src,
                    MetaReply(
                        replica_id=self.node_id,
                        seqno=message.min_seqno,
                        level=message.level,
                        index=message.index,
                        children=children,
                    ),
                )
        elif isinstance(message, FetchObject):
            data = self.service.get_object_at(message.min_seqno, message.index)
            if data is not None:
                self.counters.add("objects_served")
                self.counters.add("object_bytes_served", len(data))
                self.send(
                    src,
                    ObjectReply(
                        replica_id=self.node_id,
                        index=message.index,
                        seqno=message.min_seqno,
                        data=data,
                    ),
                )

    # -- fused-backup tier (repro.bft.fusion) ------------------------------------------------------------------------

    def on_parity_ack(self, message: ParityAck, src: str) -> None:
        if not self.check_auth(message, expected_sender=src):
            return
        if self.fusion_feeder is None or src != message.parity_id:
            self.counters.add("fusion_acks_ignored")
            return
        self.fusion_feeder.on_ack(self, message)

    def on_fusion_fetch(self, message: FusionFetch, src: str) -> None:
        """Serve a full fixed-width block of our abstract state to a fused
        node — for bootstrap (seqno 0 = latest stable) or reconstruction
        (exact pinned seqno)."""
        if not self.check_auth(message, expected_sender=src):
            return
        if src != message.parity_id:
            self.counters.add("fusion_fetches_refused")
            return
        manager = getattr(self.service, "manager", None)
        if manager is None:
            self.counters.add("fusion_fetches_refused")
            return
        from repro.base.fusion import FusionError, cell_width_for, pack_block

        seqno = message.seqno
        cert: Optional[CheckpointCert] = None
        if seqno == 0:
            if self.stable_cert is not None and self.last_executed >= self.stable_seqno:
                seqno = self.stable_seqno
                cert = self.stable_cert
            elif self.stable_cert is None and 0 in self.service.checkpoint_seqnos():
                cert = CheckpointCert(
                    seqno=0, state_digest=self.service.genesis_root_digest(), proof=[]
                )
            else:
                self.counters.add("fusion_fetches_refused")
                return
        elif seqno == self.stable_seqno and self.stable_cert is not None:
            # Exact fetch at the current stable checkpoint: certified.
            cert = self.stable_cert
        elif seqno not in self.service.checkpoint_seqnos():
            self.counters.add("fusion_fetches_refused")
            return
        # An exact fetch below the stable checkpoint (GC-pinned) is served
        # without a certificate: the fused node verifies the block against
        # the certified root it already holds for that seqno.
        leaves = []
        for index in range(manager.total_leaves):
            leaf = self.service.get_leaf(seqno, index)
            value = self.service.get_object_at(seqno, index)
            if leaf is None or value is None:
                self.counters.add("fusion_fetches_refused")
                return
            if cell_width_for(len(value)) > message.slot_width:
                self.counters.add("fusion_serve_overflow")
                return
            leaves.append((leaf[0], value))
        try:
            block = pack_block(leaves, message.slot_width)
        except FusionError:
            self.counters.add("fusion_serve_overflow")
            return
        self.counters.add("fusion_blocks_served")
        self.counters.add("fusion_block_bytes_served", len(block))
        self.auth_send(
            src,
            FusionBlock(
                replica_id=self.node_id,
                shard=message.shard,
                seqno=seqno,
                slot_width=message.slot_width,
                num_leaves=manager.total_leaves,
                block=block,
                cert=cert,
            ),
        )

    # -- hooks used by managers ------------------------------------------------------------------------------------

    def after_state_transfer(self, seqno: int, cert: CheckpointCert) -> None:
        """Called by the transfer manager once fetched state is installed."""
        if self.fast_path is not None:
            self.fast_path.reset("state-transfer")
        self.last_executed = max(self.last_executed, seqno)
        self.next_seqno = max(self.next_seqno, seqno)
        self._last_commit_time = self.now()
        self._relayed_once = False
        # Requests ordered below the transferred checkpoint were executed by
        # the quorum; our tracking entries for them are stale.  Any client
        # that still wants a reply will retransmit.
        self.in_flight.clear()
        self.pending.clear()
        self._rearm_request_timer()
        self._mark_stable(cert)
        self.service.discard_checkpoints_below(seqno)
        if self.recovering:
            self.finish_recovery()
        self.execute_ready()

    def finish_recovery(self) -> None:
        self.recovering = False
        self.counters.add("recoveries_completed")
        emit(self.tracer, self.node_id, "recovery_completed", seqno=self.last_executed)
        self.multicast(self.other_replicas(), Recovered(replica_id=self.node_id, epoch=0))
        if self.on_recovered is not None:
            self.on_recovered()
        self._arm_request_timer()
        if self.is_primary():
            self.try_send_pre_prepare()
