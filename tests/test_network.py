"""Tests for the collective-communication time models."""

import pytest

from repro.cluster.network import allreduce_time, alltoall_time


class TestCollectiveModels:
    def test_allreduce_zero_for_single_worker(self):
        assert allreduce_time(1e9, 1, 1e9) == 0.0

    def test_allreduce_volume_scales_with_world(self):
        # 2*(w-1)/w converges to 2x the buffer over the link.
        small = allreduce_time(1e9, 2, 1e9, latency=0.0)
        large = allreduce_time(1e9, 64, 1e9, latency=0.0)
        assert small == pytest.approx(1.0)
        assert large == pytest.approx(2 * 63 / 64)

    def test_alltoall_zero_for_single_worker(self):
        assert alltoall_time(1e9, 1, 1e9) == 0.0

    def test_alltoall_grows_with_world(self):
        assert (alltoall_time(1e9, 16, 1e9)
                > alltoall_time(1e9, 2, 1e9))
