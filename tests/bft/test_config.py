"""BFT configuration invariants."""

import pytest

from repro.bft.config import BFTConfig
from repro.util.errors import ConfigurationError


def test_default_is_f1_n4():
    config = BFTConfig()
    assert config.n == 4
    assert config.f == 1
    assert config.quorum == 3
    assert config.weak_quorum == 2


def test_n_must_cover_f():
    with pytest.raises(ConfigurationError):
        BFTConfig(replica_ids=["R0", "R1", "R2"], f=1)


def test_seven_replicas_tolerate_two_faults():
    config = BFTConfig(replica_ids=[f"R{i}" for i in range(7)], f=2)
    assert config.quorum == 5


def test_primary_rotates_round_robin():
    config = BFTConfig()
    assert [config.primary(v) for v in range(5)] == ["R0", "R1", "R2", "R3", "R0"]


def test_duplicate_ids_rejected():
    with pytest.raises(ConfigurationError):
        BFTConfig(replica_ids=["R0", "R0", "R1", "R2"])


def test_log_window_must_cover_two_checkpoints():
    with pytest.raises(ConfigurationError):
        BFTConfig(checkpoint_interval=16, log_window=16)


def test_max_outstanding_must_fit_the_log_window():
    with pytest.raises(ConfigurationError):
        BFTConfig(checkpoint_interval=8, log_window=16, max_outstanding=16)
    assert BFTConfig(checkpoint_interval=8, log_window=16, max_outstanding=15)


def test_checkpoint_interval_positive():
    with pytest.raises(ConfigurationError):
        BFTConfig(checkpoint_interval=0)


def test_replica_index():
    config = BFTConfig()
    assert config.replica_index("R2") == 2
