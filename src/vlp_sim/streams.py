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
_12 = np.uint64(12)
# counters per Philox call at most: the rounds hold 48 bytes a counter (the
# word-major buffer and two products), so under 1 MB; a call's prefixes are
# split evenly between its chunks, so no chunk is a short tail
_CHUNK = 16384


def philox4x32(words, key) -> None:
    """Philox4x32-10 under a key (2,), in place on the counters' four
    32-bit words: words is a word-major uint64 array (4, N, ...), and each
    word ends as the output's.

    The rounds run on one contiguous array per word, so a word-major
    counter costs no strided pass and no copy.
    """
    c0, c1, c2, c3 = words
    p0, p1 = np.empty_like(c0), np.empty_like(c0)
    k0, k1 = (int(k) for k in key)
    for _ in range(10):
        np.multiply(c0, _M[0], out=p0)  # 32 x 32 -> 64-bit products
        np.multiply(c2, _M[1], out=p1)
        np.right_shift(p1, _32, out=c0)
        c0 ^= c1
        c0 ^= np.uint64(k0)
        np.bitwise_and(p1, _LO, out=c1)
        np.right_shift(p0, _32, out=c2)
        c2 ^= c3
        c2 ^= np.uint64(k1)
        np.bitwise_and(p0, _LO, out=c3)
        k0, k1 = (k0 + _W[0]) & 0xFFFFFFFF, (k1 + _W[1]) & 0xFFFFFFFF


def seed_key(seed: int) -> tuple[int, int]:
    """The Philox key of a master seed in [0, 2^64): low word, high word."""
    if not 0 <= seed < 2**64:
        raise ValueError("seed must lie in [0, 2^64)")
    return seed & 0xFFFFFFFF, seed >> 32


def uniforms(seed: int, prefix, n: int = 0, blocks=None) -> np.ndarray:
    """Uniforms strictly inside (0, 1) from the Philox blocks of counter
    prefixes (..., 3).

    Block b of a prefix is the Philox output of counter (*prefix, b); each
    block holds two uniforms, in order, each made of 52 bits of one word
    pair: u = (bits + 1/2) / 2^52, so the extremes are 2^-53 and 1 - 2^-53.
    Returns the first n uniforms per prefix, from blocks 0, 1, ...: (..., n);
    or, given blocks, block indices (..., B) broadcast against the prefixes,
    the two uniforms of each of them: (..., B, 2).
    """
    prefix = np.asarray(prefix, dtype=np.uint64)
    if blocks is None:
        flat = uniforms(seed, prefix, blocks=np.arange((n + 1) // 2))
        return flat.reshape(prefix.shape[:-1] + (-1,))[..., :n]
    blocks = np.asarray(blocks, dtype=np.uint64)
    lead = np.broadcast_shapes(prefix.shape[:-1], blocks.shape[:-1])
    width = blocks.shape[-1]
    rows = np.broadcast_to(prefix, lead + (3,)).reshape(-1, 1, 3)
    index = np.broadcast_to(blocks, lead + (width,)).reshape(-1, width)
    key = seed_key(seed)
    out = np.empty((len(rows), width, 2))
    chunks = max(1, -(-len(rows) * width // _CHUNK))
    step = max(1, -(-len(rows) // chunks))  # prefixes per chunk
    counter = np.empty((4, min(len(rows), step), width), dtype=np.uint64)  # word-major
    for start in range(0, len(rows), step):
        stop = min(start + step, len(rows))
        c = counter[:, : stop - start]
        c[:3] = np.moveaxis(rows[start:stop], -1, 0)
        c[3] = index[start:stop]
        philox4x32(c, key)  # the counter becomes the Philox output, word by word
        for j in range(2):  # (bits + 1/2) / 2^52 of words 2j (high 32 bits) and 2j + 1 (low 20), exactly
            out[start:stop, :, j] = c[2 * j] * 2.0**-32 + ((c[2 * j + 1] >> _12) + 0.5) * 2.0**-52
    return out.reshape(lead + (width, 2))


def uniform_index(u, k):
    """Index in [0, k) from a uniform of uniforms(): floor(u * k).

    u <= 1 - 2^-53, so the rounded product stays below k for every k < 2^53.
    (A 53-bit map (bits + 1/2) / 2^53 would round its top value to 1.0 and
    pick k.)
    """
    return (np.asarray(u) * k).astype(np.int64)
