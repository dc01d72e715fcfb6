"""Unit tests for the tag-matching engine."""

from repro.mpi import Envelope, MatchingEngine


class TestEnvelope:
    def test_exact_match(self):
        """Source, tag and communicator must all be equal; a -1 is a
        value like any other, not a wildcard."""
        eng = MatchingEngine()
        eng.post_recv("r", source=1, tag=5, comm_id=0)
        for miss in (Envelope(2, 5, 0), Envelope(1, 6, 0), Envelope(1, 5, 1),
                     Envelope(-1, 5, 0), Envelope(1, -1, 0)):
            assert eng.match_arrival(miss) == (None, 1)
        eng.store_unexpected("f", Envelope(1, 5, 0), now=0.0)
        assert eng.find_unexpected(-1, -1, 0) == (None, 1)
        entry, scanned = eng.match_arrival(Envelope(1, 5, 0))
        assert (entry.request, scanned) == ("r", 1)


class TestMatchingEngine:
    def test_arrival_matches_posted_in_fifo_order(self):
        eng = MatchingEngine()
        eng.post_recv("req_a", source=0, tag=1, comm_id=0)
        eng.post_recv("req_b", source=0, tag=1, comm_id=0)
        entry, scanned = eng.match_arrival(Envelope(0, 1, 0))
        assert entry.request == "req_a"
        assert scanned == 1
        entry, _ = eng.match_arrival(Envelope(0, 1, 0))
        assert entry.request == "req_b"

    def test_scan_cost_counts_skipped_entries(self):
        eng = MatchingEngine()
        eng.post_recv("other", source=0, tag=99, comm_id=0)
        eng.post_recv("target", source=0, tag=1, comm_id=0)
        entry, scanned = eng.match_arrival(Envelope(0, 1, 0))
        assert entry.request == "target"
        assert scanned == 2
        assert eng.stats.elements_scanned == 2

    def test_unmatched_arrival_returns_none(self):
        eng = MatchingEngine()
        entry, scanned = eng.match_arrival(Envelope(0, 1, 0))
        assert entry is None
        assert scanned == 0

    def test_unexpected_queue_fifo(self):
        eng = MatchingEngine()
        eng.store_unexpected("f1", Envelope(0, 1, 0), now=1.0)
        eng.store_unexpected("f2", Envelope(0, 1, 0), now=2.0)
        hit, _ = eng.find_unexpected(source=0, tag=1, comm_id=0)
        assert hit.frame == "f1"
        hit, _ = eng.find_unexpected(source=0, tag=1, comm_id=0)
        assert hit.frame == "f2"
        hit, _ = eng.find_unexpected(source=0, tag=1, comm_id=0)
        assert hit is None

    def test_depth_tracking(self):
        eng = MatchingEngine()
        for i in range(3):
            eng.post_recv(f"r{i}", source=0, tag=i, comm_id=0)
        assert eng.stats.max_posted_depth == 3
        eng.store_unexpected("f", Envelope(0, 9, 0), now=0.0)
        assert eng.stats.max_unexpected_depth == 1

    def test_match_stats_counters(self):
        eng = MatchingEngine()
        eng.post_recv("r", source=0, tag=1, comm_id=0)
        eng.match_arrival(Envelope(0, 1, 0))
        assert eng.stats.posted_matches == 1
        eng.store_unexpected("f", Envelope(0, 2, 0), now=0.0)
        eng.find_unexpected(0, 2, 0)
        assert eng.stats.unexpected_matches == 1
