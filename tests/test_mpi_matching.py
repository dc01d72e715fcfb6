"""Unit tests for the tag-matching engine."""

from repro.mpi import ANY_SOURCE, ANY_TAG, Envelope, MatchingEngine


class TestEnvelope:
    def test_exact_match(self):
        env = Envelope(source=1, tag=5, comm_id=0)
        assert env.matches_pattern(1, 5, 0)
        assert not env.matches_pattern(2, 5, 0)
        assert not env.matches_pattern(1, 6, 0)
        assert not env.matches_pattern(1, 5, 1)

    def test_wildcards(self):
        env = Envelope(source=3, tag=9, comm_id=0)
        assert env.matches_pattern(ANY_SOURCE, 9, 0)
        assert env.matches_pattern(3, ANY_TAG, 0)
        assert env.matches_pattern(ANY_SOURCE, ANY_TAG, 0)

    def test_comm_id_never_wildcards(self):
        env = Envelope(source=3, tag=9, comm_id=1)
        assert not env.matches_pattern(ANY_SOURCE, ANY_TAG, 0)


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

    def test_wildcard_posted_recv_matches_any_source(self):
        eng = MatchingEngine()
        eng.post_recv("wild", source=ANY_SOURCE, tag=ANY_TAG, comm_id=0)
        entry, _ = eng.match_arrival(Envelope(7, 3, 0))
        assert entry.request == "wild"

    def test_depth_tracking(self):
        eng = MatchingEngine()
        for i in range(3):
            eng.post_recv(f"r{i}", source=0, tag=i, comm_id=0)
        assert eng.posted_depth == 3
        assert eng.stats.max_posted_depth == 3
        eng.store_unexpected("f", Envelope(0, 9, 0), now=0.0)
        assert eng.unexpected_depth == 1
        assert eng.stats.max_unexpected_depth == 1

    def test_match_stats_counters(self):
        eng = MatchingEngine()
        eng.post_recv("r", source=0, tag=1, comm_id=0)
        eng.match_arrival(Envelope(0, 1, 0))
        assert eng.stats.posted_matches == 1
        eng.store_unexpected("f", Envelope(0, 2, 0), now=0.0)
        eng.find_unexpected(0, 2, 0)
        assert eng.stats.unexpected_matches == 1
