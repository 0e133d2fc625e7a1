"""numpy's `Generator(PCG64(seed)).random(n)`, byte for byte, without numpy.random.

The seed is expanded here as numpy's SeedSequence expands it, and the
stream is drawn by the compiled kernel (_kernel.c) if `_kernel.load`
accepted it, else by numpy.random, whose import loads OpenSSL (through
`secrets` and `hashlib`) and costs about 6 MB of memory.
"""

from __future__ import annotations

import numpy as np

from . import _kernel

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M32 = 2**32 - 1

# Draws recorded from numpy.random: Generator(PCG64(seed)).random(3) as
# float.hex, for a seed of one, three and seven 32-bit words.
RECORDED = {
    0: ("0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2", "0x1.4fa7b529d9bd0p-5"),
    2**64 + 3: ("0x1.72e3130a8e59ep-1", "0x1.a43614024d64ep-2", "0x1.035a1d03efee3p-1"),
    2**200 + 7: ("0x1.c29c317a2d499p-1", "0x1.685935c8e4b0ep-2", "0x1.132947d08103cp-1"),
}


def uniform(seed: int, n: int) -> np.ndarray:
    """n doubles in [0, 1) of the PCG64 stream of an int `seed` >= 0, drawn
    in the compiled kernel if `_kernel.load` accepted it, else by numpy.random."""
    kernel = _kernel.load()
    if kernel is None:
        return np.random.Generator(np.random.PCG64(seed)).random(n)
    return kernel[1](*seed_state(seed), n)


def probe(draw) -> bool:
    """Whether the kernel's `draw` (`uniform` of `_kernel.load`) reproduces
    the recorded draws bit for bit."""
    for seed, want in RECORDED.items():
        got = draw(*seed_state(seed), len(want))
        if tuple(x.hex() for x in got.tolist()) != want:
            return False
    return True


def seed_state(seed: int) -> tuple[int, int]:
    """SeedSequence(seed).generate_state(4, uint64) as PCG64 reads it: the
    128-bit initial state and stream, each from two words, high word first."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hashmix = _hasher(_INIT_A, _MULT_A)

    def mix(x, y):
        r = (_MIX_L * x - _MIX_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):  # every word feeds every other, so late bits reach early ones
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:  # entropy beyond the pool is mixed into each word
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    out = _hasher(_INIT_B, _MULT_B)
    words = [out(pool[k % 4]) for k in range(8)]  # eight 32-bit words, the pool cycled twice
    w = [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]  # little-endian uint64
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


def _hasher(h: int, mult: int):
    """SeedSequence's 32-bit hash, whose constant `h` advances on every call."""

    def hashmix(value):
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16

    return hashmix
