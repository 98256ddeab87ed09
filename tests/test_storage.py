"""Tests for the shared parallel file-system model."""

import pytest

from repro.cluster.storage import SharedStorage


def make_storage():
    # Seren-like: 25 Gb/s storage NIC per node, 400 GB/s backend.
    return SharedStorage(backend_bandwidth=400e9,
                         node_nic_bandwidth=25e9 / 8.0)


class TestSharedStorage:
    def test_single_trial_gets_full_nic(self):
        storage = make_storage()
        assert storage.per_trial_load_rate(1) == pytest.approx(25e9 / 8.0)

    def test_node_nic_splits_among_trials(self):
        storage = make_storage()
        assert storage.per_trial_load_rate(8) == pytest.approx(
            25e9 / 8.0 / 8.0)

    def test_fig16_collapse_then_flat(self):
        """Fig. 16 left: 1 -> 8 trials collapses ~8x; 8 -> 256 is flat."""
        storage = make_storage()
        results = dict(storage.stress_test(14e9,
                                           [1, 2, 4, 8, 16, 64, 256]))
        assert results[1] / results[8] == pytest.approx(8.0, rel=0.01)
        assert results[8] == pytest.approx(results[256], rel=0.05)

    def test_backend_binds_at_extreme_scale(self):
        storage = SharedStorage(backend_bandwidth=10e9,
                                node_nic_bandwidth=5e9)
        # 100 single-trial nodes share a 10 GB/s backend.
        assert storage.per_trial_load_rate(1, total_trials=100) == \
            pytest.approx(0.1e9)

    def test_load_time_inverse_of_rate(self):
        storage = make_storage()
        assert storage.load_time(25e9 / 8.0, trials_per_node=1) == \
            pytest.approx(1.0)

    def test_write_contention_across_writers(self):
        storage = SharedStorage(backend_bandwidth=100e9,
                                node_nic_bandwidth=50e9)
        solo = storage.write_time(100e9, concurrent_writers=1)
        crowded = storage.write_time(100e9, concurrent_writers=10)
        assert crowded > solo

    def test_rejects_bad_bandwidth(self):
        with pytest.raises(ValueError):
            SharedStorage(0.0, 1.0)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            make_storage().per_trial_load_rate(0)
