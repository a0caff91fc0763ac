"""Seeded random stream: numpy's ``Generator(PCG64(seed))``, in Python.

Every random draw of the Dyn throttle (:mod:`repro.core.dynwarp`) and
the random-kernel generator (:mod:`repro.workloads.generator`) comes
from :class:`PCG64`.  For its three methods it yields bit for bit what
``numpy.random.Generator(numpy.random.PCG64(seed))`` yields, so results
made with numpy are reproduced exactly, and since the algorithm lives
here, inside the code salt, no library upgrade can move a result.

As in numpy: ``SeedSequence`` hashes the seed's 32-bit words into a
4-word pool and expands it to the initial state and increment; PCG64 is
a 128-bit LCG with XSL-RR output; ``random()`` keeps the top 53 bits of
one output; ``integers`` uses Lemire's method on 32-bit draws, which
take each 64-bit output low half first, the high half waiting in a
buffer that ``random()`` leaves alone.
"""

from __future__ import annotations

import operator

__all__ = ["PCG64"]

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1
_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645

# SeedSequence's hash constants (32-bit arithmetic).
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_L, _MIX_R = 0xCA01_F9DD, 0x4973_F715


def _seed_state(seed: int) -> tuple[int, int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as two 128-bit
    numbers: PCG64's initial state and its stream selector."""
    words = [seed & _MASK32]
    while seed := seed >> 32:
        words.append(seed & _MASK32)
    mult = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal mult
        value ^= mult
        mult = mult * _MULT_A & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    mult = _INIT_B
    for i in range(8):
        value = pool[i % 4] ^ mult
        mult = mult * _MULT_B & _MASK32
        value = value * mult & _MASK32
        out.append(value ^ value >> 16)
    u64 = [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]
    return u64[0] << 64 | u64[1], u64[2] << 64 | u64[3]


class PCG64:
    """``numpy.random.Generator(numpy.random.PCG64(seed))``, three methods.

    ``seed`` must be a non-negative integer.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        state, seq = _seed_state(seed)
        self._inc = (seq << 1 | 1) & _MASK128
        # From state 0 one step lands on ``inc``; add the seed state and
        # step again.
        self._state = (self._inc + state) & _MASK128
        self._next64()
        #: High half of the last 64-bit output, owed to the next
        #: 32-bit draw.
        self._half: int | None = None

    def _next64(self) -> int:
        self._state = s = (self._state * _MULT + self._inc) & _MASK128
        x = (s >> 64 ^ s) & _MASK64
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        u = self._next64()
        self._half = u >> 32
        return u & _MASK32

    def random(self) -> float:
        """A float in [0, 1) with 53 random bits."""
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low: float, high: float) -> float:
        """A float in [low, high)."""
        return low + (high - low) * self.random()

    def integers(self, low: int, high: int) -> int:
        """An int in [low, high); the range may hold at most 2**32 values."""
        r = high - low - 1
        if r < 0:
            raise ValueError(f"low >= high ({low} >= {high})")
        if r > _MASK32:
            raise ValueError(f"range [{low}, {high}) is wider than 2**32")
        if r == 0:
            return low
        if r == _MASK32:
            return low + self._next32()
        excl = r + 1
        m = self._next32() * excl
        if m & _MASK32 < excl:
            threshold = (_MASK32 - r) % excl
            while m & _MASK32 < threshold:
                m = self._next32() * excl
        return low + (m >> 32)
