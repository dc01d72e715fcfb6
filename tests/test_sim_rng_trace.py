"""Unit tests for RNG streams."""

from repro.sim import RandomStreams


class TestRandomStreams:
    def test_same_seed_same_draws(self):
        a = RandomStreams(42).stream("noise").uniform(size=10)
        b = RandomStreams(42).stream("noise").uniform(size=10)
        assert a == b

    def test_different_seeds_differ(self):
        a = RandomStreams(1).stream("noise").uniform(size=10)
        b = RandomStreams(2).stream("noise").uniform(size=10)
        assert a != b

    def test_streams_are_independent(self):
        rs = RandomStreams(0)
        first = rs.stream("a").uniform(size=5)
        rs2 = RandomStreams(0)
        rs2.stream("b").uniform(size=100)  # interleave another consumer
        second = rs2.stream("a").uniform(size=5)
        assert first == second

    def test_stream_is_cached(self):
        rs = RandomStreams(0)
        assert rs.stream("x") is rs.stream("x")

    def test_reset_recreates_streams(self):
        rs = RandomStreams(0)
        first = rs.stream("x").uniform(size=3)
        rs.reset()
        again = rs.stream("x").uniform(size=3)
        assert first == again

    def test_spawn_is_disjoint(self):
        parent = RandomStreams(0)
        child = parent.spawn("child")
        a = parent.stream("x").uniform(size=5)
        b = child.stream("x").uniform(size=5)
        assert a != b

    def test_spawn_is_deterministic(self):
        a = RandomStreams(0).spawn("c").stream("x").uniform(size=5)
        b = RandomStreams(0).spawn("c").stream("x").uniform(size=5)
        assert a == b
