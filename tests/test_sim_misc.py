"""Tests for repro.sim.rng."""

from repro.sim.rng import make_rng, stream_seed


class TestRng:
    def test_same_labels_same_stream(self):
        a = make_rng(1, "x", 2)
        b = make_rng(1, "x", 2)
        assert [a.random() for _ in range(5)] == \
            [b.random() for _ in range(5)]

    def test_different_labels_different_streams(self):
        a = make_rng(1, "x")
        b = make_rng(1, "y")
        assert [a.random() for _ in range(5)] != \
            [b.random() for _ in range(5)]

    def test_seed_changes_stream(self):
        assert stream_seed(1, "x") != stream_seed(2, "x")

    def test_label_order_matters(self):
        assert stream_seed(1, "a", "b") != stream_seed(1, "b", "a")

    def test_int_and_str_labels(self):
        assert stream_seed(1, 2) == stream_seed(1, "2")
