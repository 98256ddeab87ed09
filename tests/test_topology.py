"""Tests for the cluster factories."""

from repro.cluster.cluster import make_kalos, make_seren


class TestClusterFactories:
    def test_seren_scale_matches_table1(self):
        seren = make_seren()
        assert seren.node_count == 286
        assert seren.total_gpus == 2288
        assert seren.scheduler_kind == "slurm"

    def test_kalos_scale_matches_table1(self):
        kalos = make_kalos()
        assert kalos.node_count == 302
        assert kalos.total_gpus == 2416
        assert kalos.scheduler_kind == "kubernetes"

    def test_acme_total_gpus(self):
        assert make_seren().total_gpus + make_kalos().total_gpus == 4704

    def test_summary_row(self):
        row = make_seren(4).summary()
        assert row["cpus_per_node"] == 128
        assert row["gpus_per_node"] == 8
        assert row["nodes"] == 4

    def test_gang_placement_prefers_whole_nodes(self):
        cluster = make_seren(4)
        placement = cluster.find_nodes_with_free_gpus(16)
        assert sum(take for _, take in placement) == 16
        assert all(take == 8 for _, take in placement)

    def test_placement_fails_when_insufficient(self):
        cluster = make_seren(2)
        assert cluster.find_nodes_with_free_gpus(17) == []

    def test_placement_skips_cordoned_nodes(self):
        cluster = make_seren(2)
        cluster.nodes[0].cordon()
        placement = cluster.find_nodes_with_free_gpus(8)
        assert placement[0][0] is cluster.nodes[1]
        assert cluster.free_gpus == 8
