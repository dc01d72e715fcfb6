"""The binary wire codec: lossless frames, strict and total decoding."""

import math
import struct
import tracemalloc
from array import array

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core import PtpBenchmarkConfig, plan_cells, run_ptp_benchmark
from repro.core.runner import METRIC_NAMES, PtpResult, PtpSample
from repro.core.wire import (WIRE_MAGIC, WIRE_VERSION, WireError,
                             decode_result, encode_result)
from repro.errors import ConfigurationError, ReproError
from repro.faults import FaultOutcome
from repro.metrics import PartitionTimeline, PtpMetrics
from repro.noise import UniformNoise


def _base(**overrides):
    defaults = dict(message_bytes=1024, partitions=4,
                    compute_seconds=1e-4, iterations=3)
    defaults.update(overrides)
    return PtpBenchmarkConfig(**defaults)


def _result(**overrides):
    config = plan_cells(_base(**overrides), [1024], [4])[0]
    return config, run_ptp_benchmark(config)


def _assert_lossless(fresh, back):
    assert back.event_digest == fresh.event_digest
    assert back.source == fresh.source
    assert back.trials == fresh.trials
    assert back.fault_outcome == fresh.fault_outcome
    assert [s.iteration for s in back.samples] == \
        [s.iteration for s in fresh.samples]
    assert [s.timeline for s in back.samples] == \
        [s.timeline for s in fresh.samples]
    assert [s.metrics for s in back.samples] == \
        [s.metrics for s in fresh.samples]


class TestRoundTrip:
    def test_des_result_is_lossless(self):
        config, fresh = _result(noise=UniformNoise(4.0))
        frame = encode_result(fresh)
        assert frame[:4] == WIRE_MAGIC
        _assert_lossless(fresh, decode_result(config, frame))

    def test_sha256_digest_packs_as_raw_bytes(self):
        config, fresh = _result()
        assert fresh.event_digest is not None
        assert len(fresh.event_digest) == 64
        frame = encode_result(fresh)
        # Raw 32 bytes, not 64 hex characters, ride the frame.
        assert bytes.fromhex(fresh.event_digest) in frame
        assert fresh.event_digest.encode("ascii") not in frame
        assert decode_result(config, frame).event_digest == \
            fresh.event_digest

    def test_non_hex_digest_falls_back_to_string(self):
        config, fresh = _result()
        fresh.event_digest = "not-a-sha256"
        back = decode_result(config, encode_result(fresh))
        assert back.event_digest == "not-a-sha256"

    def test_missing_digest_survives(self):
        config, fresh = _result()
        fresh.event_digest = None
        assert decode_result(config, encode_result(fresh)).event_digest \
            is None

    def test_fault_outcome_round_trips(self):
        config, fresh = _result()
        fresh.fault_outcome = FaultOutcome(
            delivered=False, drops=3, retransmits=2, duplicates=1,
            acks=7, abandoned=1, stalls=4, fail_stops=1,
            reason="retry budget exhausted")
        _assert_lossless(fresh, decode_result(config, encode_result(fresh)))

    def test_interned_and_inline_sources(self):
        config, fresh = _result()
        for source in ("des", "analytic", "merged-exotic"):
            fresh.source = source
            back = decode_result(config, encode_result(fresh))
            assert back.source == source

    def test_trials_survive(self):
        config, fresh = _result()
        fresh.trials = 17
        assert decode_result(config, encode_result(fresh)).trials == 17

    def test_timestamps_round_trip_bit_exact(self):
        # binary64 carries every Python float exactly; compare the IEEE
        # bit patterns the bit-for-bit digests depend on.
        def bits(values):
            return [struct.pack("<d", v) for v in values]

        config, fresh = _result(noise=UniformNoise(4.0))
        back = decode_result(config, encode_result(fresh))
        for s, b in zip(fresh.samples, back.samples):
            assert bits(s.timeline.pready_times) == \
                bits(b.timeline.pready_times)
            assert bits(s.timeline.arrival_times) == \
                bits(b.timeline.arrival_times)


class TestStrictDecoding:
    def test_bad_magic_rejected(self):
        config, fresh = _result()
        frame = bytearray(encode_result(fresh))
        frame[:4] = b"NOPE"
        with pytest.raises(WireError, match="magic"):
            decode_result(config, bytes(frame))

    def test_version_mismatch_rejected(self):
        config, fresh = _result()
        frame = bytearray(encode_result(fresh))
        frame[4] = WIRE_VERSION + 1
        with pytest.raises(WireError, match="version"):
            decode_result(config, bytes(frame))

    def test_truncation_rejected_everywhere(self):
        config, fresh = _result()
        frame = encode_result(fresh)
        for cut in (0, 3, len(frame) // 2, len(frame) - 1):
            with pytest.raises(WireError):
                decode_result(config, frame[:cut])

    def test_trailing_garbage_rejected(self):
        config, fresh = _result()
        with pytest.raises(WireError, match="trailing"):
            decode_result(config, encode_result(fresh) + b"\x00")

    def test_wire_error_is_a_repro_error(self):
        assert issubclass(WireError, ReproError)


class TestPayloadDispatch:
    def test_binary_frame_dispatches_to_codec(self):
        config, fresh = _result()
        _assert_lossless(fresh, decode_result(config, encode_result(fresh)))


class TestEncodeRefusals:
    """What the codec cannot frame is a bug in the producer: it raises."""

    def test_ragged_timeline_raises(self):
        config, fresh = _result()
        sample = fresh.samples[0]
        # Bypass the timeline's own validation to build the ragged shape;
        # the record refuses it, so no frame can carry one.
        object.__setattr__(sample.timeline, "arrival_times",
                           sample.timeline.arrival_times[:-1])
        with pytest.raises(ConfigurationError, match="pready vs"):
            PtpResult(config, samples=[sample])

    def test_oversized_string_raises(self):
        config, fresh = _result()
        fresh.source = "x" * 0x10000
        with pytest.raises(WireError, match="too long"):
            encode_result(fresh)

    def test_out_of_range_trials_raise(self):
        config, fresh = _result()
        fresh.trials = -1
        with pytest.raises(WireError, match="out of frame range"):
            encode_result(fresh)

    def test_out_of_range_message_size_raises(self):
        config, fresh = _result()
        sample = fresh.samples[0]
        object.__setattr__(sample.timeline, "message_bytes", 10 ** 26)
        with pytest.raises(ConfigurationError, match="out of record range"):
            PtpResult(config, samples=[sample])
        # The record holds 64-bit iterations; the frame only 32-bit ones.
        tl = fresh.samples[0].timeline
        fresh.add_sample(2 ** 32, tl.message_bytes, tl.pready_times,
                         tl.arrival_times, tl.join_time, tl.pt2pt_time)
        with pytest.raises(WireError, match="out of frame range"):
            encode_result(fresh)


#: One valid frame (a fault outcome and an inline source, so every
#: optional block is present) to mutate.
_CONFIG, _FRESH = _result(noise=UniformNoise(4.0))
_FRESH.fault_outcome = FaultOutcome(delivered=False, drops=1,
                                    reason="budget")
_FRESH.source = "merged-exotic"
_FRAME = encode_result(_FRESH)


def _decode_or_wire_error(frame: bytes) -> None:
    """Decode ``frame``; a failure may only ever be :class:`WireError`."""
    try:
        decode_result(_CONFIG, frame)
    except WireError:
        pass


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


class TestDecodeIsTotal:
    """Any byte string decodes or raises :class:`WireError`, nothing else."""

    @_FUZZ
    @given(st.binary(max_size=512))
    def test_arbitrary_bytes(self, blob):
        _decode_or_wire_error(blob)

    @_FUZZ
    @given(st.binary(max_size=256))
    def test_arbitrary_bytes_after_a_valid_header(self, tail):
        _decode_or_wire_error(_FRAME[:16] + tail)

    @_FUZZ
    @given(st.integers(min_value=0, max_value=len(_FRAME)))
    def test_truncations(self, cut):
        _decode_or_wire_error(_FRAME[:cut])

    @_FUZZ
    @given(st.lists(st.tuples(st.integers(0, len(_FRAME) - 1),
                              st.integers(0, 255)),
                    min_size=1, max_size=8))
    def test_byte_flips(self, flips):
        frame = bytearray(_FRAME)
        for index, value in flips:
            frame[index] = value
        _decode_or_wire_error(bytes(frame))

    def test_invalid_timeline_is_a_wire_error(self):
        # A timestamp the timeline validation rejects (an arrival long
        # before its pready) used to escape as ConfigurationError.
        frame = bytearray(_FRAME)
        arrival = len(frame) - 8       # the last sample's last arrival
        frame[arrival:] = struct.pack("<d", 1e-300)
        with pytest.raises(WireError, match="arrived"):
            decode_result(_CONFIG, bytes(frame))


def _reference_frame(result) -> bytes:
    """The frame of a plain result (no digest, no fault outcome, source
    ``"des"``) packed value by value with ``struct``: the reference the
    array codec must match byte for byte."""
    pieces = [struct.pack("<4sBBBxII", WIRE_MAGIC, WIRE_VERSION, 0, 0,
                          result.trials, len(result.samples))]
    for sample in result.samples:
        tl = sample.timeline
        p = len(tl.pready_times)
        pieces.append(struct.pack("<IQIdd", sample.iteration,
                                  tl.message_bytes, p, tl.join_time,
                                  tl.pt2pt_time))
        pieces.append(struct.pack(f"<{2 * p}d", *tl.pready_times,
                                  *tl.arrival_times))
    return b"".join(pieces)


#: Signed zeros, the smallest subnormal, the subnormal/normal boundary
#: and values near the top of the binary64 range, plus any finite float.
_TIMES = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.225073858507201e-308,
    2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308,
]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _timelines(draw):
    pairs = draw(st.lists(st.tuples(_TIMES, _TIMES), min_size=1,
                          max_size=8))
    return PartitionTimeline(
        message_bytes=draw(st.integers(1, 2 ** 64 - 1)),
        pready_times=[min(pair) for pair in pairs],
        arrival_times=[max(pair) for pair in pairs],
        join_time=draw(_TIMES),
        pt2pt_time=draw(_TIMES.filter(lambda t: t > 0)))


_TIMELINE_FUZZ = settings(_FUZZ, max_examples=100)


def _plain_result(timelines) -> PtpResult:
    unframed = PtpMetrics(0.0, 0.0, 0.0, 0.0)   # metrics never ride
    return PtpResult(config=_CONFIG, samples=[
        PtpSample(iteration=i, timeline=tl, metrics=unframed)
        for i, tl in enumerate(timelines)])


def _frame_samples(frame: bytes):
    """``(iteration, message_bytes, join, pt2pt, pready, arrival)`` per
    sample of a plain frame, unpacked value by value with ``struct``."""
    (n_samples,) = struct.unpack_from("<I", frame, 12)
    offset = 16
    for _ in range(n_samples):
        iteration, message_bytes, p, join, pt2pt = \
            struct.unpack_from("<IQIdd", frame, offset)
        offset += 32
        times = struct.unpack_from(f"<{2 * p}d", frame, offset)
        offset += 16 * p
        yield iteration, message_bytes, join, pt2pt, times[:p], times[p:]


def _hexes(values):
    return [float(v).hex() for v in values]


class TestRecordRoundTrip:
    """A decoded result is a packed record whose views carry the frame's
    doubles bit for bit, and which encodes back to the same frame."""

    @_TIMELINE_FUZZ
    @given(st.lists(_timelines(), min_size=1, max_size=4))
    def test_decode_then_encode_is_the_identity(self, timelines):
        assume(all(tl.last_transfer_time > 0 for tl in timelines))
        frame = encode_result(_plain_result(timelines))
        back = decode_result(_CONFIG, frame)
        assert encode_result(back) == frame
        assert back.n_samples == len(timelines)
        for view, (iteration, message_bytes, join, pt2pt, pready,
                   arrival) in zip(back.samples, _frame_samples(frame)):
            tl = view.timeline
            assert view.iteration == iteration
            assert tl.message_bytes == message_bytes
            assert _hexes(tl.pready_times) == _hexes(pready)
            assert _hexes(tl.arrival_times) == _hexes(arrival)
            assert _hexes([tl.join_time, tl.pt2pt_time]) == \
                _hexes([join, pt2pt])
            # The metrics were computed once, at decode, exactly as a
            # timeline computes them.
            assert _hexes(getattr(view.metrics, name)
                          for name in METRIC_NAMES) == \
                _hexes(getattr(PtpMetrics.from_timeline(tl), name)
                       for name in METRIC_NAMES)
        for name in METRIC_NAMES:
            assert _hexes(back.metric_values(name)) == \
                _hexes(getattr(view.metrics, name) for view in back.samples)

    @_TIMELINE_FUZZ
    @given(st.lists(_timelines(), min_size=1, max_size=4),
           st.integers(1, 64), st.booleans())
    def test_truncated_or_padded_frames_raise(self, timelines, cut, pad):
        frame = encode_result(_plain_result(timelines))
        broken = frame + bytes(cut) if pad else frame[:-cut]
        with pytest.raises(WireError):
            decode_result(_CONFIG, broken)

    @_TIMELINE_FUZZ
    @given(st.lists(_timelines(), min_size=1, max_size=4), st.data())
    def test_arrival_before_pready_raises(self, timelines, data):
        # The samples before the victim must decode.
        assume(all(tl.last_transfer_time > 0 for tl in timelines))
        victim = data.draw(st.integers(0, len(timelines) - 1))
        frame = bytearray(encode_result(_plain_result(timelines)))
        offset = 16
        for k, tl in enumerate(timelines):
            p = tl.partitions
            if k == victim:
                part = data.draw(st.integers(0, p - 1))
                early = math.nextafter(tl.pready_times[part], -math.inf)
                struct.pack_into("<d", frame,
                                 offset + 32 + 8 * (p + part), early)
            offset += 32 + 16 * p
        with pytest.raises(WireError, match="before its pready"):
            decode_result(_CONFIG, bytes(frame))


class TestArrayTimelines:
    """Timelines are ``array('d')``; the frame is byte for byte the one
    the struct-per-sample encoder wrote."""

    @_TIMELINE_FUZZ
    @given(st.lists(_timelines(), min_size=1, max_size=4))
    def test_frame_matches_the_struct_reference(self, timelines):
        result = _plain_result(timelines)
        assert encode_result(result) == _reference_frame(result)

    @_TIMELINE_FUZZ
    @given(st.lists(_timelines(), min_size=1, max_size=4))
    def test_decoded_arrays_carry_every_timestamp_exactly(self, timelines):
        # The metrics recomputed on decode need a positive duration for
        # the partition that arrives last.
        assume(all(tl.last_transfer_time > 0 for tl in timelines))
        back = decode_result(_CONFIG, encode_result(_plain_result(timelines)))
        for sample, tl in zip(back.samples, timelines):
            for got, want in ((sample.timeline.pready_times, tl.pready_times),
                              (sample.timeline.arrival_times,
                               tl.arrival_times)):
                assert type(got) is array and got.typecode == "d"
                assert [t.hex() for t in got] == [t.hex() for t in want]

    def test_every_producer_yields_arrays(self):
        config, fresh = _result()
        listed = PartitionTimeline(message_bytes=8, pready_times=[0.0],
                                   arrival_times=(1.0,), join_time=0.5,
                                   pt2pt_time=1.0)
        for tl in (fresh.samples[0].timeline,
                   decode_result(config, encode_result(fresh))
                   .samples[0].timeline, listed):
            assert type(tl.pready_times) is array
            assert type(tl.arrival_times) is array
            assert tl.pready_times.typecode == "d"


class TestDecodedFootprint:
    """A kept result holds raw doubles, not boxed floats and dicts."""

    def test_records_take_no_instance_dict(self):
        config, fresh = _result()
        sample = decode_result(config, encode_result(fresh)).samples[0]
        for record in (fresh, sample, sample.timeline, sample.metrics):
            assert not hasattr(record, "__dict__"), type(record).__name__
        # The frozen three refused ad hoc attributes already.
        with pytest.raises(AttributeError):
            fresh.ad_hoc = 1

    @staticmethod
    def _retained(partitions):
        """Bytes one decoded 8-iteration result keeps alive."""
        config = plan_cells(_base(message_bytes=64 * 1024,
                                  partitions=partitions, iterations=8),
                            [64 * 1024], [partitions])[0]
        frame = encode_result(run_ptp_benchmark(config))
        decode_result(config, frame)     # warm any first-call caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = decode_result(config, frame)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(kept.samples) == 8
        assert kept.samples[0].timeline.partitions == partitions
        return retained

    def test_decoded_8x32_result_retains_at_most_5600_bytes(self):
        # The packed record: 8 x (64 timestamps + 6) doubles and
        # 8 x 3 integers, plus the result and its digest string.
        retained = self._retained(32)
        assert retained <= 5_600, retained

    def test_decoded_8x2_result_retains_at_most_1400_bytes(self):
        # Per-sample objects used to dominate small results (3,609 bytes).
        retained = self._retained(2)
        assert retained <= 1_400, retained
