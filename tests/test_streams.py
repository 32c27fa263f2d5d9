import numpy as np
import pytest

from vlp_sim import streams
from vlp_sim.streams import philox4x32, seed_key, uniform_index, uniforms


def words(text):
    return [int(w, 16) for w in text.split()]


def philox(counter, key):
    """Philox4x32-10 of counters (N, 4) or (4,), words last: philox4x32 on a
    word-major copy."""
    c = np.atleast_2d(np.asarray(counter, dtype=np.uint64)).T.copy()
    philox4x32(c, key)
    return c.T.reshape(np.shape(counter))


class TestPhilox:
    # known answers of Philox4x32-10 from Random123's kat_vectors
    @pytest.mark.parametrize("counter, key, expected", [
        ("00000000 00000000 00000000 00000000", "00000000 00000000", "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
        ("ffffffff ffffffff ffffffff ffffffff", "ffffffff ffffffff", "408f276d 41c83b0e a20bc7c6 6d5451fd"),
        ("243f6a88 85a308d3 13198a2e 03707344", "a4093822 299f31d0", "d16cfe09 94fdcceb 5001e420 24126ea1"),
    ])
    def test_known_answers(self, counter, key, expected):
        np.testing.assert_array_equal(philox(words(counter), words(key)), words(expected))

    def test_batch_matches_one_by_one(self):
        counters = np.random.default_rng(0).integers(0, 2**32, size=(50, 4))
        batch = philox(counters, (7, 9))
        for c, out in zip(counters, batch):
            np.testing.assert_array_equal(philox(c, (7, 9)), out)

    def test_seed_key_splits_words(self):
        assert seed_key(0) == (0, 0)
        assert seed_key(2**64 - 1) == (2**32 - 1, 2**32 - 1)
        assert seed_key(5 * 2**32 + 3) == (3, 5)
        for bad in (-1, 2**64):
            with pytest.raises(ValueError):
                seed_key(bad)


class TestUniforms:
    def test_strictly_inside_unit_interval(self):
        prefix = np.column_stack([np.arange(20_000), np.zeros(20_000, int), np.zeros(20_000, int)])
        u = uniforms(11, prefix, 12)
        assert u.shape == (20_000, 12)
        assert 0.0 < u.min() and u.max() < 1.0
        assert abs(u.mean() - 0.5) < 0.005

    def test_extremes_of_the_word_map(self):
        # counter 0 / key 0 and all-ones words give known words; the map
        # (52 bits + 1/2) / 2^52 keeps 2^-53 and 1 - 2^-53 as its extremes
        u = uniforms(0, [0, 0, 0], 2)
        w = philox([0, 0, 0, 0], (0, 0))
        bits = [(int(w[0]) << 20) | (int(w[1]) >> 12), (int(w[2]) << 20) | (int(w[3]) >> 12)]
        np.testing.assert_array_equal(u, [(b + 0.5) * 2.0**-52 for b in bits])
        assert (0 + 0.5) * 2.0**-52 == 2.0**-53 and (2**52 - 1 + 0.5) * 2.0**-52 == 1.0 - 2.0**-53

    def test_block_layout(self):
        # uniforms 2b and 2b + 1 come from block b; more uniforms extend the row
        a = uniforms(4, [[1, 2, 3]], 3)
        b = uniforms(4, [[1, 2, 3]], 6)
        np.testing.assert_array_equal(a, b[:, :3])

    @pytest.mark.parametrize("chunk", [1, 7, 24, 50])
    def test_chunks_do_not_change_results(self, monkeypatch, chunk):
        # 13 prefixes, split between chunks of at most `chunk` counters (one
        # prefix a chunk when a prefix alone has more), in the n form and the
        # blocks= form, the latter with each prefix's own blocks
        prefix = np.column_stack([np.arange(13), np.arange(13) % 4, np.full(13, 5)])
        blocks = (np.arange(13)[:, None] * 3 + np.arange(4)) % 11
        whole = uniforms(9, prefix, 11), uniforms(9, prefix, blocks=blocks), uniforms(9, prefix, blocks=[2, 0])
        monkeypatch.setattr(streams, "_CHUNK", chunk)
        cut = uniforms(9, prefix, 11), uniforms(9, prefix, blocks=blocks), uniforms(9, prefix, blocks=[2, 0])
        for a, b in zip(whole, cut):
            np.testing.assert_array_equal(a, b)


class TestUniformIndex:
    @pytest.mark.parametrize("k", [1, 7, 360, 32_399, 32_400, 2**20 + 1, 2**40 + 3])
    def test_largest_uniform_stays_below_k(self, k):
        top = 1.0 - 2.0**-53
        assert uniform_index(top, k) == k - 1
        assert uniform_index(np.array([2.0**-53, top]), np.array([k, k])).tolist() == [0, k - 1]

    def test_every_k_up_to_2_pow_22(self):
        k = np.arange(1, 2**22)
        np.testing.assert_array_equal(uniform_index(1.0 - 2.0**-53, k), k - 1)

    def test_a_53_bit_map_would_reach_k(self):
        # why uniforms() keeps 52 bits: (2^53 - 1 + 1/2) / 2^53 rounds to 1.0
        top_53 = (2**53 - 1 + 0.5) * 2.0**-53
        assert top_53 == 1.0 and int(top_53 * 32_400) == 32_400

    def test_even_split(self):
        u = (np.arange(7000) + 0.5) / 7000
        np.testing.assert_array_equal(np.bincount(uniform_index(u, 7)), np.full(7, 1000))
