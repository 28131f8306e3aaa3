"""Portable seeded random number generation.

All randomness in the simulator and detection pipeline flows through the
xoshiro256** generator below so that runs are reproducible bit-for-bit and
other implementations can match streams from the published constants alone.
Substreams (one per actor, per subsystem, ...) are derived by hashing a
canonical tag string with SHA-256, which is equally portable.

``choices(seq, k)`` and ``shuffle`` draw a whole run of bounded integers in
one loop over local state, but they consume exactly the draws that ``k``
``choice`` calls, or the ``randint(0, i)`` swap calls of a one-at-a-time
Fisher-Yates shuffle, consume; the stream does not depend on which is used.
"""

from __future__ import annotations

import hashlib
import math

MASK64 = (1 << 64) - 1
_TWO64 = 1 << 64


def splitmix64(state: int) -> tuple[int, int]:
    """One step of splitmix64; returns (new_state, output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, (z ^ (z >> 31)) & MASK64


class Xoshiro256StarStar:
    """xoshiro256** 1.0 (Blackman & Vigna's public-domain constants)."""

    def __init__(self, seed: int):
        s = seed & MASK64
        state = []
        for _ in range(4):
            s, out = splitmix64(s)
            state.append(out)
        if not any(state):  # all-zero state is invalid
            state[0] = 1
        self._s = state

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        x = (s1 * 5) & MASK64
        result = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
        t = (s1 << 17) & MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        self._s = [s0, s1, s2, ((s3 << 45) | (s3 >> 19)) & MASK64]
        return result

    def _below(self, spans) -> list[int]:
        """``randint(0, n - 1)`` for each span ``n``, drawn exactly as those
        calls would draw them, with the state in locals for the whole run."""
        out = []
        s0, s1, s2, s3 = self._s
        last = None
        try:
            for n in spans:
                if n != last:  # a new span: check it, then its rejection limit
                    if not 0 < n <= _TWO64:
                        raise ValueError(f"empty range [0, {n - 1}]" if n < 1
                                         else f"a range of {n} values exceeds 2**64")
                    limit, last = _TWO64 - _TWO64 % n, n
                x = limit   # draw at least once; reject words at or past the limit
                while x >= limit:
                    x = (s1 * 5) & MASK64
                    x = ((((x << 7) | (x >> 57)) & MASK64) * 9) & MASK64
                    t = (s1 << 17) & MASK64
                    s2 ^= s0
                    s3 ^= s1
                    s1 ^= s2
                    s0 ^= s3
                    s2 ^= t
                    s3 = ((s3 << 45) | (s3 >> 19)) & MASK64
                out.append(x % n)
        finally:
            self._s = [s0, s1, s2, s3]
        return out

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 bits of precision."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self._below((hi - lo + 1,))[0]

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def choices(self, seq, k: int) -> list:
        """``[choice(seq) for _ in range(k)]``, from the same draws."""
        return [seq[i] for i in self._below([len(seq)] * k)]

    def shuffle(self, seq: list) -> None:
        """Fisher-Yates from the back, with ``randint(0, i)`` swap indices."""
        for i, j in zip(range(len(seq) - 1, 0, -1),
                        self._below(range(len(seq), 1, -1))):
            seq[i], seq[j] = seq[j], seq[i]

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Box-Muller without state caching (one uniform pair per draw)."""
        u1 = self.random()
        while u1 <= 1e-300:
            u1 = self.random()
        u2 = self.random()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def poisson(self, lam: float) -> int:
        """Poisson draw via product-of-uniforms (fine for the small rates here)."""
        if lam < 0:
            raise ValueError("rate must be >= 0")
        if lam == 0:
            return 0
        threshold = math.exp(-lam)
        k = 0
        p = 1.0
        while True:
            p *= self.random()
            if p <= threshold:
                return k
            k += 1


def substream(seed: int, *tags) -> Xoshiro256StarStar:
    """Derive an independent generator from a seed and a tag tuple.

    The tag tuple is rendered canonically and hashed with SHA-256; the first
    8 bytes (big-endian) seed the xoshiro state through splitmix64.
    """
    canon = repr((int(seed),) + tuple(str(t) for t in tags)).encode("utf-8")
    digest = hashlib.sha256(canon).digest()
    return Xoshiro256StarStar(int.from_bytes(digest[:8], "big"))
