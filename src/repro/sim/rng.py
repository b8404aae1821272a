"""Seeded random numbers, bit-exact with numpy's ``default_rng``.

Every random draw the runtime makes — network jitter, ``--scheduler
random`` placement, a fault plan's drops and delays — comes from one
:class:`PCG64` per consumer, seeded by an int.  The stream is numpy's:
``SeedSequence(seed)`` expands the seed into a 128-bit state and
increment, the generator is PCG64's XSL-RR 128/64 LCG, ``integers`` is
numpy's Lemire rejection sampler (32-bit draws, buffered in halves of one
64-bit output, when the range fits in 32 bits) and ``random`` takes the
top 53 bits of one output.  So every seed gives the schedule it gave
when numpy drew it, without numpy's import time and pages.
"""

from __future__ import annotations

from typing import List

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
#: PCG's default 128-bit LCG multiplier.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_TWO_53 = 1.0 / 9007199254740992.0

# numpy.random.SeedSequence's hash constants (pool of four 32-bit words).
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def seed_words(seed: int, n_words: int) -> List[int]:
    """``SeedSequence(seed).generate_state(n_words)``: 32-bit words."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    seed >>= 32
    while seed:
        entropy.append(seed & _M32)
        seed >>= 32
    const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = (const * _MULT_A) & _M32
        value = (value * const) & _M32
        return value ^ (value >> 16)

    def mix(x: int, y: int) -> int:
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ (r >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = []
    const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL] ^ const
        const = (const * _MULT_B) & _M32
        value = (value * const) & _M32
        out.append(value ^ (value >> 16))
    return out


class PCG64:
    """numpy's ``default_rng(seed)``, for the draws the runtime makes."""

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int = 0) -> None:
        w = seed_words(seed, 8)
        # generate_state(4, uint64) is the same words, little-endian pairs.
        s0, s1, i0, i1 = (w[k] | w[k + 1] << 32 for k in range(0, 8, 2))
        self._inc = (((i0 << 64 | i1) << 1) | 1) & _M128
        state = (self._inc + (s0 << 64 | s1)) & _M128
        self._state = (state * _MULT + self._inc) & _M128
        #: The unread high half of the last 64-bit output split for a
        #: 32-bit draw, or None.
        self._half = None

    def next64(self) -> int:
        """One 64-bit output (XSL-RR of the advanced state)."""
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((x >> rot) | (x << (-rot & 63))) & _M64

    def next32(self) -> int:
        """One 32-bit output: the low half of a 64-bit one, then its high
        half.  A 64-bit draw in between does not discard the kept half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        x = self.next64()
        self._half = x >> 32
        return x & _M32

    def random(self) -> float:
        """A float in [0, 1) from the top 53 bits of one output."""
        # next64, inline: one Python frame per draw.
        state = self._state = (self._state * _MULT + self._inc) & _M128
        x = ((state >> 64) ^ state) & _M64
        rot = state >> 122
        return ((((x >> rot) | (x << (-rot & 63))) & _M64) >> 11) * _TWO_53

    def integers(self, low: int, high: int) -> int:
        """A uniform int in [low, high): ``Generator.integers(low, high)``
        (int64, Lemire's method).  A one-value range draws nothing."""
        span = high - 1 - low
        if span < 0:
            raise ValueError("low >= high")
        if span == 0:
            return low
        if span < _M32:
            # The network's jitter, once per frame: the first draw is
            # next32 inline (the buffered half, else the low half of a
            # fresh output); only a Lemire rejection calls out.
            draw, bits, mask = self.next32, 32, _M32
            first = self._half
            if first is not None:
                self._half = None
            else:
                state = self._state = \
                    (self._state * _MULT + self._inc) & _M128
                x = ((state >> 64) ^ state) & _M64
                rot = state >> 122
                x = ((x >> rot) | (x << (-rot & 63))) & _M64
                self._half = x >> 32
                first = x & _M32
        elif span == _M32:
            return low + self.next32()
        elif span < _M64:
            draw, bits, mask = self.next64, 64, _M64
            first = self.next64()
        elif span == _M64:
            return low + self.next64()
        else:
            raise ValueError("range wider than 64 bits")
        excl = span + 1
        m = first * excl
        if m & mask < excl:
            threshold = (mask - span) % excl
            while m & mask < threshold:
                m = draw() * excl
        return low + (m >> bits)
