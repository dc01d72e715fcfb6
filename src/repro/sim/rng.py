"""Deterministic, named random-number streams.

Every stochastic element of a simulation (each noise model, each thread's
compute jitter) draws from its own named stream derived from a single master
seed.  Streams are independent: adding a new consumer never perturbs the
draws seen by existing consumers, which keeps experiments comparable across
code revisions — the standard "common random numbers" variance-reduction
technique used in simulation studies.

Each stream is a :class:`Generator`: numpy's ``default_rng`` algorithms
(SeedSequence seeding, PCG64, ziggurat normal) in pure
Python.  A stream's draws equal ``numpy.random.default_rng(seed)``'s bit
for bit, so the runtime needs no numpy and every digest stays the one
numpy produced.
"""

from __future__ import annotations

import hashlib
import math
from typing import Dict, List, Optional, Union

from ._ziggurat import FI, KI, WI

__all__ = ["Generator", "RandomStreams"]

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
#: PCG64's 128-bit LCG multiplier (``PCG_DEFAULT_MULTIPLIER_128``).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_M53 = 1.0 / 9007199254740992.0
#: SeedSequence's hash constants (``numpy/random/bit_generator.pyx``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
#: Ziggurat tail constants (``numpy/random/src/distributions``).
_NOR_R = 3.6541528853610088
_NOR_INV_R = 0.27366123732975828


def _seed_words(seed: int) -> List[int]:
    """numpy's ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError(f"seed must be non-negative: {seed}")
    entropy = [seed & _M32]
    seed >>= 32
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _M32
        value = (value * hash_const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        result = (_MIX_L * x - _MIX_R * y) & _M32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    out32 = []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _M32
        value = (value * hash_const) & _M32
        out32.append(value ^ (value >> 16))
    return [out32[i] | (out32[i + 1] << 32) for i in range(0, 8, 2)]


class Generator:
    """PCG64 random stream equal to ``numpy.random.default_rng(seed)``.

    Only the five draws the runtime uses exist.  Each returns one Python
    number, or with ``size=n`` a list of ``n`` of them, drawn exactly as
    numpy draws them.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        w = _seed_words(int(seed))
        initstate = (w[0] << 64) | w[1]
        inc = (((w[2] << 64) | w[3]) << 1 | 1) & _M128
        # pcg64_srandom_r: state = 0, step, add initstate, step.
        self._inc = inc
        self._state = ((inc + initstate) * _PCG_MULT + inc) & _M128
        #: The upper half of the last 64-bit word split for a 32-bit draw
        #: (numpy's ``has_uint32``/``uinteger``), or None.
        self._half: Optional[int] = None

    def _next64(self) -> int:
        """One LCG step, then the XSL-RR output (``pcg64_next64``)."""
        s = (self._state * _PCG_MULT + self._inc) & _M128
        self._state = s
        x = ((s >> 64) ^ s) & _M64
        r = s >> 122
        return ((x >> r) | (x << (64 - r))) & _M64

    def _next32(self) -> int:
        """``pcg64_next32``: a 64-bit word's low half, then its high."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _M32

    def _bounded(self, rng: int) -> int:
        """A draw from ``[0, rng]``: numpy's 32-bit Lemire rejection."""
        if rng == 0:
            return 0
        excl = rng + 1
        m = self._next32() * excl
        if (m & _M32) < excl:
            threshold = (_M32 - rng) % excl
            while (m & _M32) < threshold:
                m = self._next32() * excl
        return m >> 32

    def _standard_normal(self) -> float:
        """numpy's ``random_standard_normal`` (256-layer ziggurat)."""
        while True:
            r = self._next64()
            idx = r & 0xFF
            r >>= 8
            rabs = (r >> 1) & 0x000FFFFFFFFFFFFF
            x = rabs * WI[idx]
            if r & 1:
                x = -x
            if rabs < KI[idx]:
                return x
            if idx == 0:
                while True:
                    xx = -_NOR_INV_R * math.log1p(-self.random())
                    yy = -math.log1p(-self.random())
                    if yy + yy > xx * xx:
                        return (-(_NOR_R + xx) if (rabs >> 8) & 1
                                else _NOR_R + xx)
            elif ((FI[idx - 1] - FI[idx]) * self.random() + FI[idx]
                  < math.exp(-0.5 * x * x)):
                return x

    def random(self, size: Optional[int] = None
               ) -> Union[float, List[float]]:
        """Uniform draws from ``[0, 1)`` with 53 random bits."""
        if size is None:
            return (self._next64() >> 11) * _TWO_M53
        draw = self._next64
        return [(draw() >> 11) * _TWO_M53 for _ in range(size)]

    def uniform(self, low: float = 0.0, high: float = 1.0,
                size: Optional[int] = None) -> Union[float, List[float]]:
        """Uniform draws from ``[low, high)``."""
        low = float(low)
        span = float(high) - low
        if size is None:
            return low + span * self.random()
        return [low + span * u for u in self.random(size)]

    def integers(self, high: int, *, size: Optional[int] = None
                 ) -> Union[int, List[int]]:
        """Integers from ``[0, high)``, for ``1 <= high <= 2**32``
        (numpy's 32-bit path)."""
        rng = int(high) - 1
        if not 0 <= rng <= _M32:
            raise ValueError(f"high must be in [1, 2**32]: {high}")
        if size is None:
            return self._bounded(rng)
        return [self._bounded(rng) for _ in range(size)]

    def normal(self, loc: float = 0.0, scale: float = 1.0,
               size: Optional[int] = None) -> Union[float, List[float]]:
        """Gaussian draws: ``loc + scale * z`` with ziggurat ``z``."""
        loc, scale = float(loc), float(scale)
        if size is None:
            return loc + scale * self._standard_normal()
        draw = self._standard_normal
        return [loc + scale * draw() for _ in range(size)]


class RandomStreams:
    """A registry of independent :class:`Generator` streams.

    A stream named ``name`` draws exactly what
    ``numpy.random.default_rng(seed)`` would for the SHA-256-derived
    ``seed``, without importing numpy.

    Parameters
    ----------
    master_seed:
        Seed for the whole experiment.  Identical seeds yield identical
        simulations.

    Example
    -------
    >>> rs = RandomStreams(123)
    >>> a = rs.stream("noise/thread-0")
    >>> b = rs.stream("noise/thread-1")
    >>> a is rs.stream("noise/thread-0")
    True
    """

    def __init__(self, master_seed: int = 0):
        self.master_seed = int(master_seed)
        self._streams: Dict[str, Generator] = {}

    def _derive_seed(self, name: str) -> int:
        """Derive a stream seed by hashing (master_seed, name).

        Uses SHA-256 rather than Python's ``hash`` so the derivation is
        stable across interpreter runs (``PYTHONHASHSEED`` does not leak in).
        """
        digest = hashlib.sha256(
            f"{self.master_seed}\x1f{name}".encode()).digest()
        return int.from_bytes(digest[:8], "little")

    def stream(self, name: str) -> Generator:
        """Return (creating on first use) the generator for ``name``."""
        gen = self._streams.get(name)
        if gen is None:
            gen = Generator(self._derive_seed(name))
            self._streams[name] = gen
        return gen

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child registry whose streams are disjoint from ours."""
        return RandomStreams(self._derive_seed(f"spawn/{name}"))

    def reset(self) -> None:
        """Drop all streams; the next ``stream()`` call re-creates them fresh."""
        self._streams.clear()
