"""View changes: liveness when the primary is faulty (OSDI'99 section 4.4,
signature variant).

A backup whose request timer expires multicasts VIEW-CHANGE for view v+1,
carrying its stable-checkpoint proof and a prepared certificate for every
sequence number it prepared above the checkpoint.  The new primary collects
2f+1 valid view-changes, deterministically recomputes the set ``O`` of
pre-prepares for in-flight sequence numbers (highest-view prepared
certificate wins; gaps become null requests), and multicasts NEW-VIEW.
Backups re-verify the same computation before adopting the view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.bft.messages import (
    CheckpointCert,
    NewView,
    PrePrepare,
    PreparedProof,
    ViewChange,
)

if TYPE_CHECKING:
    from repro.bft.replica import Replica


class ViewChangeManager:
    """Per-replica view-change state machine."""

    def __init__(self, replica: "Replica") -> None:
        self.replica = replica
        self.in_view_change = False
        self.pending_view = 0
        self.attempts = 0
        self.messages: Dict[int, Dict[str, ViewChange]] = {}
        self.last_new_view: Optional[NewView] = None
        self.own_view_change: Optional[ViewChange] = None

    # -- timeouts ---------------------------------------------------------------

    def current_timeout(self) -> float:
        """Request-timer patience; doubles with consecutive failed attempts."""
        return self.replica.config.view_change_timeout * (2 ** min(self.attempts, 8))

    # -- initiating a view change ---------------------------------------------------

    def start(self, new_view: int) -> None:
        replica = self.replica
        if new_view <= replica.view:
            return
        if self.in_view_change and new_view <= self.pending_view:
            return
        self.in_view_change = True
        self.pending_view = new_view
        replica.counters.add("view_changes_started")
        from repro.util.trace import emit

        emit(replica.tracer, replica.node_id, "view_change_started", new_view=new_view)

        view_change = self._build_view_change(new_view)
        self.own_view_change = view_change
        self._record(view_change)
        replica.multicast(replica.other_replicas(), view_change)

        deadline_view = new_view

        def escalate() -> None:
            if self.in_view_change and self.pending_view == deadline_view:
                self.attempts += 1
                self.replica.counters.add("view_change_escalations")
                self.start(deadline_view + 1)

        replica.set_timer(self.current_timeout() * 2, escalate)
        self._try_new_view(new_view)

    def _build_view_change(self, new_view: int) -> ViewChange:
        replica = self.replica
        proofs: List[PreparedProof] = []
        low = replica.stable_seqno
        high = low + replica.config.log_window
        for seqno in range(low + 1, high + 1):
            proof = replica.log.best_prepared_proof(seqno, replica.node_id)
            if proof is not None:
                proofs.append(proof)
        checkpoint_proof = (
            list(replica.stable_cert.proof) if replica.stable_cert is not None else []
        )
        view_change = ViewChange(
            new_view=new_view,
            stable_seqno=replica.stable_seqno,
            checkpoint_proof=checkpoint_proof,
            prepared=proofs,
            replica_id=replica.node_id,
        )
        view_change.sig = replica.signer.sign(view_change.signable_bytes())
        return view_change

    # -- receiving view-change traffic ------------------------------------------------

    def on_message(self, message, src: str) -> None:
        if isinstance(message, ViewChange):
            self.on_view_change(message, src)
        elif isinstance(message, NewView):
            self.on_new_view(message, src)

    def on_view_change(self, view_change: ViewChange, src: str) -> None:
        replica = self.replica
        if src != view_change.replica_id:
            return
        if view_change.replica_id not in replica.config.replica_ids:
            return
        existing = self.messages.get(view_change.new_view, {}).get(view_change.replica_id)
        if existing is not None and existing.signable_bytes() == view_change.signable_bytes():
            # Byte-identical retransmission of a vote we already validated
            # and recorded: skip re-verifying its signature and every proof
            # inside it.  (Both encodings are cached, so this is one compare.)
            replica.counters.add("view_change_duplicates")
            self._try_new_view(view_change.new_view)
            return
        if not replica.sigs.verify(
            view_change.replica_id, view_change.signable_bytes(), view_change.sig
        ):
            replica.counters.add("view_change_bad_sig")
            return
        if view_change.new_view <= replica.view:
            # The sender is behind: help it with our proof of the current view.
            self.retransmit_view_proof(src)
            return
        if not self._validate_view_change(view_change):
            replica.counters.add("view_change_invalid")
            return
        self._record(view_change)

        # Liveness rule: if f+1 replicas want views above ours, join the
        # smallest such view even if our timer has not expired.
        if not self.in_view_change or view_change.new_view > self.pending_view:
            candidates = sorted(
                v for v, senders in self.messages.items()
                if v > replica.view and len(senders) >= replica.config.weak_quorum
            )
            if candidates and (not self.in_view_change or candidates[0] > self.pending_view):
                self.start(candidates[0])

        self._try_new_view(view_change.new_view)

    def _record(self, view_change: ViewChange) -> None:
        self.messages.setdefault(view_change.new_view, {})[
            view_change.replica_id
        ] = view_change

    def _validate_view_change(self, view_change: ViewChange) -> bool:
        replica = self.replica
        if view_change.stable_seqno > 0:
            cert = CheckpointCert(
                seqno=view_change.stable_seqno,
                state_digest=(
                    view_change.checkpoint_proof[0].state_digest
                    if view_change.checkpoint_proof
                    else b""
                ),
                proof=view_change.checkpoint_proof,
            )
            if not replica._verify_checkpoint_cert(cert):
                return False
        for proof in view_change.prepared:
            if not self._validate_prepared_proof(proof):
                return False
            if proof.seqno() <= view_change.stable_seqno:
                return False
        return True

    def _validate_prepared_proof(self, proof: PreparedProof) -> bool:
        replica = self.replica
        pre_prepare = proof.pre_prepare
        expected_primary = replica.config.primary(pre_prepare.view)
        if pre_prepare.primary_id != expected_primary:
            return False
        if not replica.sigs.verify(
            pre_prepare.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
        ):
            return False
        digest = pre_prepare.batch_digest()
        senders = set()
        for prepare in proof.prepares:
            if prepare.view != pre_prepare.view or prepare.seqno != pre_prepare.seqno:
                return False
            if prepare.digest != digest:
                return False
            if prepare.replica_id == expected_primary:
                return False
            if prepare.replica_id not in replica.config.replica_ids:
                return False
            if not replica.sigs.verify(
                prepare.replica_id, prepare.signable_bytes(), prepare.sig
            ):
                return False
            senders.add(prepare.replica_id)
        return len(senders) >= 2 * replica.config.f

    # -- new-view construction (new primary) ----------------------------------------------

    def _try_new_view(self, view: int) -> None:
        replica = self.replica
        if replica.config.primary(view) != replica.node_id:
            return
        if view <= replica.view:
            return
        senders = self.messages.get(view, {})
        if len(senders) < replica.config.quorum:
            return
        chosen = [senders[k] for k in sorted(senders)][: replica.config.quorum]
        min_s, _max_s, pre_prepares = self._compute_o(view, chosen)
        new_view = NewView(
            view=view,
            view_changes=chosen,
            pre_prepares=pre_prepares,
            primary_id=replica.node_id,
        )
        new_view.sig = replica.signer.sign(new_view.signable_bytes())
        replica.counters.add("new_views_sent")
        replica.multicast(replica.other_replicas(), new_view)
        self._adopt_new_view(new_view, min_s)

    def _compute_o(
        self, view: int, view_changes: List[ViewChange]
    ) -> Tuple[int, int, List[PrePrepare]]:
        """Deterministically derive the new view's initial pre-prepares."""
        replica = self.replica
        min_s = max(vc.stable_seqno for vc in view_changes)
        max_s = max(
            (proof.seqno() for vc in view_changes for proof in vc.prepared),
            default=min_s,
        )
        primary_id = replica.config.primary(view)
        pre_prepares: List[PrePrepare] = []
        for seqno in range(min_s + 1, max_s + 1):
            best: Optional[PreparedProof] = None
            for vc in view_changes:
                for proof in vc.prepared:
                    if proof.seqno() != seqno:
                        continue
                    if best is None or proof.view() > best.view():
                        best = proof
            if best is not None:
                pre_prepare = PrePrepare(
                    view=view,
                    seqno=seqno,
                    requests=list(best.pre_prepare.requests),
                    nondet=best.pre_prepare.nondet,
                    primary_id=primary_id,
                )
            else:
                # Null request fills the gap so later batches keep their slots.
                pre_prepare = PrePrepare(
                    view=view, seqno=seqno, requests=[], nondet=b"", primary_id=primary_id
                )
            if primary_id == replica.node_id:
                pre_prepare.sig = replica.signer.sign(pre_prepare.signable_bytes())
            pre_prepares.append(pre_prepare)
        return min_s, max_s, pre_prepares

    # -- adopting a new view -----------------------------------------------------------------

    def on_new_view(self, new_view: NewView, src: str) -> None:
        replica = self.replica
        if new_view.view <= replica.view:
            return
        if new_view.primary_id != replica.config.primary(new_view.view):
            return
        if src != new_view.primary_id:
            return
        if not replica.sigs.verify(
            new_view.primary_id, new_view.signable_bytes(), new_view.sig
        ):
            replica.counters.add("new_view_bad_sig")
            return
        senders = set()
        for vc in new_view.view_changes:
            if vc.new_view != new_view.view:
                return
            if not replica.sigs.verify(vc.replica_id, vc.signable_bytes(), vc.sig):
                return
            if not self._validate_view_change(vc):
                return
            senders.add(vc.replica_id)
        if len(senders) < replica.config.quorum:
            return
        min_s, _max_s, expected = self._compute_o(new_view.view, list(new_view.view_changes))
        got = new_view.pre_prepares
        if [p.batch_digest() for p in expected] != [p.batch_digest() for p in got]:
            replica.counters.add("new_view_bad_o")
            return
        for pre_prepare in got:
            if not replica.sigs.verify(
                new_view.primary_id, pre_prepare.signable_bytes(), pre_prepare.sig
            ):
                replica.counters.add("new_view_bad_o")
                return
        self._adopt_new_view(new_view, min_s)

    def _adopt_new_view(self, new_view: NewView, min_s: int) -> None:
        replica = self.replica
        if replica.fast_path is not None:
            replica.fast_path.reset("view-change")
        replica.view = new_view.view
        replica.next_seqno = max(
            replica.next_seqno,
            max((p.seqno for p in new_view.pre_prepares), default=min_s),
        )
        self.in_view_change = False
        self.pending_view = new_view.view
        self.attempts = 0
        self.last_new_view = new_view
        self.own_view_change = None
        replica.counters.add("view_changes_completed")
        # Garbage-collect view-change messages for views we moved past.
        for view in [v for v in self.messages if v <= new_view.view]:
            del self.messages[view]
        from repro.util.trace import emit

        emit(
            replica.tracer,
            replica.node_id,
            "view_adopted",
            view=new_view.view,
            primary=new_view.primary_id,
        )
        # Requests that were in flight in the old view either appear in O
        # (re-added below) or were lost and must be re-proposable on
        # retransmission.
        replica.in_flight.clear()

        # Fetch the checkpoint we are missing, using the proof carried by the
        # view-change messages themselves.
        if replica.stable_seqno < min_s:
            for vc in new_view.view_changes:
                if vc.stable_seqno == min_s and vc.checkpoint_proof:
                    cert = CheckpointCert(
                        seqno=min_s,
                        state_digest=vc.checkpoint_proof[0].state_digest,
                        proof=vc.checkpoint_proof,
                    )
                    replica._mark_stable(cert)
                    break

        for pre_prepare in new_view.pre_prepares:
            if pre_prepare.seqno <= replica.stable_seqno:
                continue
            replica.accept_pre_prepare(pre_prepare)

        replica._rearm_request_timer()
        replica.try_send_pre_prepare()
        if replica.fast_path is not None:
            replica.fast_path.grant_lease()

    # -- helping laggards -------------------------------------------------------------------------

    def retransmit_view_proof(self, dst: str) -> None:
        replica = self.replica
        if self.last_new_view is not None and replica.view == self.last_new_view.view:
            replica.send(dst, self.last_new_view)
        elif self.in_view_change and self.own_view_change is not None:
            replica.send(dst, self.own_view_change)
