"""Tests for repro.core.clustering (affinity learning)."""

from repro.core.clustering import AffinityTracker
from repro.core.object_table import CtObject


def objs(n):
    return [CtObject(f"o{i}", i * 4096, 64) for i in range(n)]


class TestAffinityTracker:
    def test_no_cluster_below_threshold(self):
        tracker = AffinityTracker(threshold=4)
        a, b = objs(2)
        # a,b,a,b yields three a<->b transitions — one short of four.
        for _ in range(2):
            tracker.observe(1, a)
            tracker.observe(1, b)
        assert a.cluster_key is None

    def test_cluster_forms_at_threshold(self):
        tracker = AffinityTracker(threshold=4)
        a, b = objs(2)
        for _ in range(4):
            tracker.observe(1, a)
            tracker.observe(1, b)
        assert a.cluster_key is not None
        assert a.cluster_key == b.cluster_key
        assert tracker.clusters_formed == 1

    def test_same_object_repeats_do_not_count(self):
        tracker = AffinityTracker(threshold=2)
        (a,) = objs(1)
        for _ in range(10):
            tracker.observe(1, a)
        assert a.cluster_key is None

    def test_transitions_are_per_thread(self):
        """a->b seen by different threads still accumulates, but
        interleaving different threads' streams does not create false
        pairs."""
        tracker = AffinityTracker(threshold=2)
        a, b, c = objs(3)
        # Thread 1 alternates a,b; thread 2 always c.
        for _ in range(2):
            tracker.observe(1, a)
            tracker.observe(2, c)
            tracker.observe(1, b)
            tracker.observe(2, c)
        assert a.cluster_key == b.cluster_key is not None
        assert c.cluster_key is None

    def test_transitive_union(self):
        tracker = AffinityTracker(threshold=2)
        a, b, c = objs(3)
        for _ in range(2):
            tracker.observe(1, a)
            tracker.observe(1, b)
        for _ in range(2):
            tracker.observe(1, b)
            tracker.observe(1, c)
        assert a.cluster_key == c.cluster_key is not None

    def test_order_insensitive_pair_counting(self):
        tracker = AffinityTracker(threshold=4)
        a, b = objs(2)
        tracker.observe(1, a)
        tracker.observe(1, b)   # a->b
        tracker.observe(1, a)   # b->a
        tracker.observe(1, b)   # a->b
        tracker.observe(1, a)   # b->a
        assert a.cluster_key is not None
