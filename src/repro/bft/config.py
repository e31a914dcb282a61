"""Static configuration of a BFT service instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.util.errors import ConfigurationError


@dataclass
class BFTConfig:
    """Parameters shared by every replica and client of one service.

    replica_ids:        ordered replica identities; primary(v) = ids[v mod n].
    f:                  tolerated Byzantine faults; requires n >= 3f + 1.
    checkpoint_interval: take a checkpoint every k requests (paper: k = 128).
    log_window:         high-water mark offset L (log holds seqnos (h, h+L]).
    batch_max:          max requests folded into one pre-prepare.
    max_outstanding:    max ordering instances in flight at the primary;
                        requests arriving while the pipeline is full
                        accumulate and are batched (this is what makes
                        batching happen at all).  The fast path widens it
                        (e.g. 8) to pipeline ordering; it must stay below
                        log_window.
    view_change_timeout: backup patience for an unexecuted request, seconds.
    status_interval:    period of status/retransmission gossip, seconds.
    client_retry:       initial client retransmission delay, seconds; doubles
                        on every retry (capped exponential backoff).
    client_retry_max:   retransmission delay ceiling, seconds — keeps a slow
                        or repairing cluster from being hammered while still
                        bounding how stale a client's retransmission gets.
    read_only_timeout:  how long a client waits for a read-only quorum before
                        falling back to a regular, ordered request.
    recovery_period:    full proactive-recovery rotation period (0 disables);
                        replica i reboots at phase i/n of each rotation.
    admission_capacity: bound on the pending-request admission queue; beyond
                        it requests are shed deterministically (never protocol
                        messages) and the primary answers Busy.
    admission_per_client: max requests one client may hold queued at a
                        replica; excess arrivals from that client are shed
                        first (fair drop-newest).
    pending_ttl:        queued requests not refreshed by a client
                        retransmission within this many seconds are expired —
                        an abandoned (cancelled / satisfied-elsewhere) request
                        must not pin the request timer forever.
    overload_damping:   stretch the view-change timer while commits are still
                        being observed, so a busy-but-alive primary is not
                        mistaken for a silent one (anti-view-change-storm).
    overload_damping_max: consecutive damped timer firings allowed while the
                        oldest queued request makes no progress; after that a
                        view change proceeds even under load (starvation
                        escape hatch).
    speculative_execution: fast path — execute batches tentatively at
                        prepare-quorum time (one phase early) and answer with
                        SpecReply; rolled back on view change or divergence,
                        confirmed when the commit certificate lands.
    read_leases:        fast path — the primary grants a read lease to all
                        replicas whenever no write is in flight and revokes
                        it before proposing the next write; replicas serve
                        read-only requests only while holding a valid lease,
                        and lease-aware clients read from just 2f+1 replicas.
    """

    replica_ids: List[str] = field(default_factory=lambda: ["R0", "R1", "R2", "R3"])
    f: int = 1
    checkpoint_interval: int = 16
    log_window: int = 64
    batch_max: int = 8
    max_outstanding: int = 2
    view_change_timeout: float = 0.25
    status_interval: float = 0.05
    client_retry: float = 0.15
    client_retry_max: float = 0.6
    read_only_timeout: float = 0.05
    recovery_period: float = 0.0
    admission_capacity: int = 64
    admission_per_client: int = 8
    pending_ttl: float = 2.0
    overload_damping: bool = True
    overload_damping_max: int = 8
    speculative_execution: bool = False
    read_leases: bool = False

    def __post_init__(self) -> None:
        if len(set(self.replica_ids)) != len(self.replica_ids):
            raise ConfigurationError("duplicate replica ids")
        if self.n < 3 * self.f + 1:
            raise ConfigurationError(
                f"n={self.n} replicas cannot tolerate f={self.f} faults "
                f"(need n >= 3f+1 = {3 * self.f + 1})"
            )
        if self.checkpoint_interval < 1:
            raise ConfigurationError("checkpoint_interval must be >= 1")
        if self.log_window < 2 * self.checkpoint_interval:
            raise ConfigurationError(
                "log_window must be at least twice the checkpoint interval"
            )
        if self.batch_max < 1:
            raise ConfigurationError("batch_max must be >= 1")
        if self.max_outstanding < 1:
            raise ConfigurationError("max_outstanding must be >= 1")
        if self.max_outstanding >= self.log_window:
            raise ConfigurationError(
                "max_outstanding must be smaller than log_window (in-flight "
                "slots all have to fit inside the water-mark window)"
            )
        if self.client_retry_max < self.client_retry:
            raise ConfigurationError("client_retry_max must be >= client_retry")
        if self.admission_capacity < self.batch_max:
            raise ConfigurationError(
                "admission_capacity must be >= batch_max (a full batch must fit)"
            )
        if self.admission_per_client < 1:
            raise ConfigurationError("admission_per_client must be >= 1")
        if self.pending_ttl <= self.client_retry_max:
            raise ConfigurationError(
                "pending_ttl must exceed client_retry_max (a live client's "
                "retransmissions must be able to refresh its queue entry)"
            )
        if self.overload_damping_max < 1:
            raise ConfigurationError("overload_damping_max must be >= 1")

    @property
    def n(self) -> int:
        return len(self.replica_ids)

    @property
    def quorum(self) -> int:
        """Size of a strong (Byzantine) quorum: 2f + 1."""
        return 2 * self.f + 1

    @property
    def weak_quorum(self) -> int:
        """f + 1: guarantees at least one correct member."""
        return self.f + 1

    def primary(self, view: int) -> str:
        return self.replica_ids[view % self.n]

    def replica_index(self, replica_id: str) -> int:
        return self.replica_ids.index(replica_id)
