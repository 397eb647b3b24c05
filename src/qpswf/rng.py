"""Deterministic counter-based random numbers (SplitMix64).

Every random draw is a pure function of (seed, counter), so test corpora
and CLI outputs are reproducible bit-for-bit across runs and platforms.
value(seed, n) hashes seed + n*GOLDEN through the SplitMix64 finalizer;
uniform doubles take the top 53 bits; normals use Box-Muller (see
CounterRng.normal), and any entries of a normal draw can be taken by index
at the cost of those entries alone.
"""

from __future__ import annotations

import numpy as np

from .errors import BadIndex

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(seed: int, counters: np.ndarray) -> np.ndarray:
    """SplitMix64 finalizer of seed + (counter+1)*GOLDEN, vectorized."""
    c = (np.asarray(counters, dtype=np.uint64) + np.uint64(1)) * np.uint64(_GOLDEN)
    z = (np.uint64(seed & _MASK) + c) & np.uint64(_MASK)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class CounterRng:
    """Stateless-by-construction stream: i-th draw depends only on (seed, i)."""

    def __init__(self, seed: int, stream: int = 0):
        # fold the stream id into the seed so independent corpora never overlap
        self.seed = int(splitmix64(seed & _MASK, np.array([stream], dtype=np.uint64))[0])
        self._next = 0

    def _uniform_at(self, counters: np.ndarray) -> np.ndarray:
        """Doubles in [0, 1) at stream counters relative to the next draw; no advance."""
        bits = splitmix64(self.seed, np.uint64(self._next) + np.asarray(counters, dtype=np.uint64))
        return (bits >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)

    def uniform(self, n: int) -> np.ndarray:
        """n doubles in [0, 1)."""
        out = self._uniform_at(np.arange(n, dtype=np.uint64))
        self._next += n
        return out

    def _box_muller(self, m: int, k: np.ndarray):
        """Radius and angle of pairs k of an m-pair draw, then advance past its 2m uniforms.

        Pair k takes uniform k as the radius draw and uniform m + k as the angle draw.
        """
        k = np.asarray(k, dtype=np.uint64)
        u = self._uniform_at(np.stack([k, k + np.uint64(m)]))
        self._next += 2 * m
        return np.sqrt(-2.0 * np.log(1.0 - u[0])), 2.0 * np.pi * u[1]

    def normal(self, n: int) -> np.ndarray:
        """n standard normals by Box-Muller on m = ceil(n/2) uniform pairs (k, m + k).

        The output is the cos half of the m pairs followed by the sin half, cut to n.
        """
        m = (n + 1) // 2
        r, th = self._box_muller(m, np.arange(m))
        return np.concatenate([r * np.cos(th), r * np.sin(th)])[:n]

    def normal_entries(self, n: int, idx) -> np.ndarray:
        """normal(n)[idx], drawing only the uniform pairs those entries use.

        Entry i is the cos (i < m) or sin (i >= m) half of pair i mod m; the
        stream advances exactly as normal(n) advances it.  An index outside
        [0, n) is BadIndex.
        """
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < n):
            raise BadIndex(f"normal entries must lie in [0, {n})")
        m = (n + 1) // 2
        r, th = self._box_muller(m, idx % m)
        return np.where(idx < m, r * np.cos(th), r * np.sin(th))

    def normal_field(self, shape) -> np.ndarray:
        return self.normal(int(np.prod(shape))).reshape(shape)
