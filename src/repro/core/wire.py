"""The binary wire codec: one packed frame per shipped result.

Every result that crosses a process or storage boundary — a pool worker
streaming a finished cell to the manager, the :class:`ResultCache`
writing an entry to disk — used to travel as a dict of per-sample dicts
of per-partition lists.  Pickling (or JSON-encoding) that shape builds
thousands of small Python objects per cell, and per-object overhead is
exactly the harness cost OMB-Py warns a Python micro-benchmark suite
about.  This module replaces it with a versioned, struct-packed frame:

``
+------+----+-----+--------+--------+-----------+-----------------+
| RPWF | v1 | flg | source | trials | n_samples | digest? fault?  |
+------+----+-----+--------+--------+-----------+-----------------+
| per sample: iteration u32 | message_bytes u64 | partitions u32  |
|             join f64 | pt2pt f64 | pready[P] f64 | arrival[P] f64|
+----------------------------------------------------------------+
``

All integers and floats are little-endian; timestamps are IEEE-754
binary64, which round-trips every Python float *exactly*, so a decoded
result reproduces its metrics — and its SHA-256 event digest — bit for
bit.  The frame keeps samples in the order of a result's packed record
(:class:`~repro.core.runner.PtpResult`): the encoder copies each
sample's timestamps out of the record's ``array('d')`` and the decoder
reads all of a frame's doubles with one buffer copy (byte-swapped on a
big-endian host), so neither side boxes a float per timestamp.  The
four metrics (:data:`METRIC_NAMES`) are derived, so they are not
framed: the decoder recomputes them as the record is built, and a
timeline the validation rejects fails the decode.

The frame is the *only* result format: pool workers ship it, the
:class:`ResultCache` stores it, and the inline ``jobs=1`` path round
trips through it too.  Encoding refuses only what no simulation
produces (a string over 64 KiB, an out-of-range count) and raises
:class:`WireError` for it.  Decoding is total: any byte string either
decodes or raises :class:`WireError`, so a corrupt cache entry is a
miss, never a crash.
"""

from __future__ import annotations

import struct
import sys
from array import array
from typing import Union

from ..errors import ReproError
from ..faults import FaultOutcome
from .config import PtpBenchmarkConfig
from .runner import METRIC_NAMES, PtpResult

__all__ = ["WIRE_VERSION", "WIRE_MAGIC", "METRIC_NAMES", "WireError",
           "encode_result", "decode_result"]

#: Bumped on any incompatible change to the frame layout; the decoder
#: rejects frames from a different version (the cache treats that as a
#: miss).
WIRE_VERSION = 1

#: First four bytes of every frame.
WIRE_MAGIC = b"RPWF"

#: Interned ``source`` values (index = wire byte).  Unknown sources are
#: carried verbatim as a length-prefixed string.
_SOURCES = ("des", "analytic")
_SOURCE_INLINE = 0xFF

# Header flag bits.
_FLAG_DIGEST_SHA256 = 0x01   # digest present as raw 32 bytes (hex sha256)
_FLAG_DIGEST_STRING = 0x02   # digest present as length-prefixed UTF-8
_FLAG_FAULT_OUTCOME = 0x04

_HEADER = struct.Struct("<4sBBBxII")        # magic, ver, flags, source,
                                            # pad, trials, n_samples
_SAMPLE = struct.Struct("<IQIdd")           # iteration, bytes, partitions,
                                            # join, pt2pt
_FAULT = struct.Struct("<B7IH")             # delivered, 7 counters,
                                            # reason length

#: Frames are little-endian; a big-endian host swaps its timestamps.
_SWAP = sys.byteorder != "little"


class WireError(ReproError):
    """A frame could not be encoded or decoded (corrupt, wrong version)."""


def encode_result(result: PtpResult) -> bytes:
    """Pack one result into a binary frame.

    Only the boundary-crossing state is packed — raw timelines, the
    event digest, trial count, provenance, and any fault outcome; the
    config is deliberately *not* part of the frame (the receiver always
    holds the live config the frame answers).
    """
    flags = 0
    digest_piece = b""
    digest = result.event_digest
    if digest is not None:
        try:
            raw = bytes.fromhex(digest)
        except (ValueError, TypeError):
            raw = None
        if raw is not None and len(raw) == 32:
            flags |= _FLAG_DIGEST_SHA256
            digest_piece = raw
        else:
            encoded = str(digest).encode("utf-8")
            if len(encoded) > 0xFFFF:
                raise WireError("event digest too long for a wire frame")
            flags |= _FLAG_DIGEST_STRING
            digest_piece = struct.pack("<H", len(encoded)) + encoded
    fault_piece = b""
    outcome = result.fault_outcome
    if outcome is not None:
        flags |= _FLAG_FAULT_OUTCOME
        reason = outcome.reason.encode("utf-8")
        if len(reason) > 0xFFFF:
            raise WireError("fault reason too long for a wire frame")
        fault_piece = _FAULT.pack(
            1 if outcome.delivered else 0, outcome.drops,
            outcome.retransmits, outcome.duplicates, outcome.acks,
            outcome.abandoned, outcome.stalls, outcome.fail_stops,
            len(reason)) + reason
    try:
        source_idx = _SOURCES.index(result.source)
        source_piece = b""
    except ValueError:
        source_idx = _SOURCE_INLINE
        encoded = str(result.source).encode("utf-8")
        if len(encoded) > 0xFFFF:
            raise WireError("source tag too long for a wire frame")
        source_piece = struct.pack("<H", len(encoded)) + encoded
    trials = result.trials
    n_samples = result.n_samples
    if not 0 <= trials <= 0xFFFFFFFF or n_samples > 0xFFFFFFFF:
        raise WireError("trial/sample count out of frame range")

    pieces = [_HEADER.pack(WIRE_MAGIC, WIRE_VERSION, flags, source_idx,
                           trials, n_samples),
              source_piece, digest_piece, fault_piece]
    for iteration, message_bytes, join_time, pt2pt_time, times, _ in \
            result.rows():
        try:
            pieces.append(_SAMPLE.pack(iteration, message_bytes,
                                       len(times) // 2, join_time,
                                       pt2pt_time))
        except struct.error as exc:
            raise WireError(f"sample out of frame range: {exc}") from exc
        if _SWAP:
            times.byteswap()
        pieces.append(times)
    return b"".join(pieces)


def decode_result(config: PtpBenchmarkConfig,
                  frame: Union[bytes, bytearray, memoryview]) -> PtpResult:
    """Rebuild a :class:`PtpResult` from a frame, under a live config.

    Timelines are unpacked exactly (binary64 round trip) and metrics
    recomputed, so the result is indistinguishable from the one that was
    encoded — the golden-digest tests pin this bit for bit.  Total: a
    frame that does not decode to a valid result — truncated, padded,
    or carrying timestamps the timeline validation rejects — raises
    :class:`WireError` and nothing else.
    """
    view = memoryview(bytes(frame))
    try:
        magic, version, flags, source_idx, trials, n_samples = \
            _HEADER.unpack_from(view, 0)
    except struct.error as exc:
        raise WireError(f"truncated wire frame: {exc}")
    if magic != WIRE_MAGIC:
        raise WireError("not a wire frame (bad magic)")
    if version != WIRE_VERSION:
        raise WireError(
            f"wire frame version {version} (this build reads "
            f"{WIRE_VERSION})")
    offset = _HEADER.size
    try:
        if source_idx == _SOURCE_INLINE:
            (length,) = struct.unpack_from("<H", view, offset)
            offset += 2
            source = bytes(view[offset:offset + length]).decode("utf-8")
            offset += length
        else:
            source = _SOURCES[source_idx]
        digest = None
        if flags & _FLAG_DIGEST_SHA256:
            digest = bytes(view[offset:offset + 32]).hex()
            if len(digest) != 64:
                raise WireError("truncated digest in wire frame")
            offset += 32
        elif flags & _FLAG_DIGEST_STRING:
            (length,) = struct.unpack_from("<H", view, offset)
            offset += 2
            digest = bytes(view[offset:offset + length]).decode("utf-8")
            offset += length
        outcome = None
        if flags & _FLAG_FAULT_OUTCOME:
            unpacked = _FAULT.unpack_from(view, offset)
            offset += _FAULT.size
            reason_len = unpacked[8]
            reason = bytes(
                view[offset:offset + reason_len]).decode("utf-8")
            offset += reason_len
            outcome = FaultOutcome(
                delivered=bool(unpacked[0]), drops=unpacked[1],
                retransmits=unpacked[2], duplicates=unpacked[3],
                acks=unpacked[4], abandoned=unpacked[5],
                stalls=unpacked[6], fail_stops=unpacked[7],
                reason=reason)
        result = PtpResult(config=config, event_digest=digest,
                           fault_outcome=outcome, source=source,
                           trials=trials)
        # A sample is a header of whole doubles' size and then doubles,
        # so the rest of the frame reads as doubles at once.
        base = offset
        raw = array("d")
        raw.frombytes(view[base:base + (len(view) - base) // 8 * 8])
        if _SWAP:
            raw.byteswap()
        for _ in range(n_samples):
            iteration, message_bytes, p, join_time, pt2pt_time = \
                _SAMPLE.unpack_from(view, offset)
            pready = (offset - base + _SAMPLE.size) // 8
            offset += _SAMPLE.size + 16 * p
            if offset > len(view):
                raise WireError("truncated timeline in wire frame")
            result.add_sample(iteration, message_bytes,
                              raw[pready:pready + p],
                              raw[pready + p:pready + 2 * p],
                              join_time, pt2pt_time)
        result.trim()
    except (struct.error, IndexError, ValueError, ArithmeticError,
            ReproError) as exc:
        # ValueError covers bad UTF-8; ReproError the timeline
        # validation (e.g. an arrival before its pready).
        raise WireError(f"corrupt wire frame: {exc}") from exc
    if offset != len(view):
        raise WireError(
            f"wire frame has {len(view) - offset} trailing byte(s)")
    return result

