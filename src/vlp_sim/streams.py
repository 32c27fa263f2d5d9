"""Counter-based random streams: Philox4x32-10 in numpy.

Philox (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11) maps a 128-bit counter and a 64-bit key through ten rounds of a
keyed bijection.  Every block depends on its counter and key alone, so a
row of a vectorised pass gets the same draws whether it runs alone or with
a million others.
"""

from __future__ import annotations

import numpy as np

_M = (np.uint64(0xD2511F53), np.uint64(0xCD9E8D57))  # round multipliers
_W = (0x9E3779B9, 0xBB67AE85)  # Weyl key increments
_LO = np.uint64(0xFFFFFFFF)
_32 = np.uint64(32)
_CHUNK = 8192  # counter prefixes per Philox call, so temporaries stay at a few MB


def philox4x32(counter, key) -> np.ndarray:
    """Philox4x32-10 of counters (..., 4) under a key (2,), all uint32 words."""
    c = np.asarray(counter, dtype=np.uint64)
    c0, c1, c2, c3 = (c[..., i] for i in range(4))
    k0, k1 = (int(k) for k in key)
    for _ in range(10):
        p0, p1 = c0 * _M[0], c2 * _M[1]  # 32 x 32 -> 64-bit products
        c0, c1, c2, c3 = (p1 >> _32) ^ c1 ^ np.uint64(k0), p1 & _LO, (p0 >> _32) ^ c3 ^ np.uint64(k1), p0 & _LO
        k0, k1 = (k0 + _W[0]) & 0xFFFFFFFF, (k1 + _W[1]) & 0xFFFFFFFF
    return np.stack([c0, c1, c2, c3], axis=-1).astype(np.uint32)


def seed_key(seed: int) -> tuple[int, int]:
    """The Philox key of a master seed in [0, 2^64): low word, high word."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2^64)")
    return seed & 0xFFFFFFFF, seed >> 32


def uniforms(seed: int, prefix, n: int) -> np.ndarray:
    """n uniforms strictly inside (0, 1) per counter prefix (..., 3).

    Block b of a prefix is the Philox output of counter (*prefix, b); each
    block holds two uniforms, in order, each made of 52 bits of one word
    pair: u = (bits + 1/2) / 2^52, so the extremes are 2^-53 and 1 - 2^-53.
    """
    prefix = np.asarray(prefix, dtype=np.uint64)
    rows = prefix.reshape(-1, 3)
    key = seed_key(seed)
    n_blocks = (n + 1) // 2
    out = np.empty((len(rows), 2 * n_blocks))
    counter = np.empty((min(len(rows), _CHUNK), n_blocks, 4), dtype=np.uint64)
    counter[..., 3] = np.arange(n_blocks)
    for start in range(0, len(rows), _CHUNK):
        chunk = rows[start : start + _CHUNK]
        c = counter[: len(chunk)]
        c[..., :3] = chunk[:, None, :]
        w = philox4x32(c, key).astype(np.uint64)
        bits = (w[..., 0::2] << np.uint64(20)) | (w[..., 1::2] >> np.uint64(12))
        out[start : start + len(chunk)] = ((bits.astype(float) + 0.5) * 2.0**-52).reshape(len(chunk), -1)
    return out.reshape(prefix.shape[:-1] + (-1,))[..., :n]


def uniform_index(u, k):
    """Index in [0, k) from a uniform of uniforms(): floor(u * k).

    u <= 1 - 2^-53, so the rounded product stays below k for every k < 2^53.
    (A 53-bit map (bits + 1/2) / 2^53 would round its top value to 1.0 and
    pick k.)
    """
    return (np.asarray(u) * k).astype(np.int64)
