import numpy as np
import pytest

from kolmo_rfn.rng import derive_seed, keyed_generator, row_keys, substream


def test_same_stream_reproduces_bits():
    a = substream(123, 7).standard_normal(50)
    b = substream(123, 7).standard_normal(50)
    assert np.array_equal(a, b)


def test_distinct_ids_give_distinct_streams():
    a = substream(123, 0).standard_normal(50)
    b = substream(123, 1).standard_normal(50)
    c = substream(124, 0).standard_normal(50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_nested_ids_differ_from_flat():
    a = substream(5, 1, 2).standard_normal(8)
    b = substream(5, 1).standard_normal(8)
    assert not np.array_equal(a, b)


def test_drawing_more_never_changes_earlier_values():
    short = substream(9, 3).standard_normal(10)
    long = substream(9, 3).standard_normal(1000)
    assert np.array_equal(short, long[:10])


def test_derive_seed_deterministic_and_split():
    assert derive_seed(42, 1) == derive_seed(42, 1)
    assert derive_seed(42, 1) != derive_seed(42, 2)
    assert derive_seed(42, 1) != derive_seed(43, 1)
    assert 0 <= derive_seed(42, 1) < 2**64


def test_negative_seed_is_usable():
    a = substream(-17, 0).standard_normal(4)
    b = substream(-17, 0).standard_normal(4)
    assert np.array_equal(a, b)


class TestRowStreams:
    # a generator keyed from row_keys(seed, *ids, rows=n) must reproduce
    # substream(seed, *ids, i) exactly: the same Philox key, a zero counter,
    # an empty buffer, hence the same draws
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, -17, 0x1234_5678_9ABC_DEF0])
    @pytest.mark.parametrize("ids", [(51,), (1, 2), (2**40,), (7, 2**33 + 5)])
    def test_rows_match_substream(self, seed, ids):
        keys = row_keys(seed, *ids, rows=40)
        assert keys.shape == (40, 2)
        open_row = keyed_generator(keys)
        for i in range(40):
            gen = open_row(i)
            ref = substream(seed, *ids, i)
            assert _same_state(gen.bit_generator.state, ref.bit_generator.state)
            assert np.array_equal(gen.standard_normal(9), ref.standard_normal(9))
            assert np.array_equal(gen.uniform(size=3), ref.uniform(size=3))

    def test_zero_and_one_rows(self):
        assert row_keys(3, 51, rows=0).shape == (0, 2)
        keys = row_keys(3, 51, rows=1)
        assert keys.shape == (1, 2)
        gen = keyed_generator(keys)(0)
        assert np.array_equal(gen.standard_normal(5), substream(3, 51, 0).standard_normal(5))

    def test_row_count_is_checked(self):
        with pytest.raises(ValueError):
            row_keys(3, 51, rows=-1)
        with pytest.raises(ValueError):
            row_keys(3, 51, rows=2**32 + 1)

    def test_rows_match_substream_whichever_generator_draws_them(self):
        # threads drawing label rows at once each re-key a generator of
        # their own: rows taken in any order by either one draw the same
        keys = row_keys(11, 51, rows=30)
        openers = [keyed_generator(keys), keyed_generator(keys)]
        pick = np.random.default_rng(0)
        for i in pick.permutation(30):
            gen = openers[pick.integers(2)](i)
            ref = substream(11, 51, i)
            assert _same_state(gen.bit_generator.state, ref.bit_generator.state)
            assert np.array_equal(gen.standard_normal(9), ref.standard_normal(9))
            assert np.array_equal(gen.poisson(2.0, size=4), ref.poisson(2.0, size=4))


def _same_state(a, b) -> bool:
    return (
        a["bit_generator"] == b["bit_generator"]
        and np.array_equal(a["state"]["key"], b["state"]["key"])
        and np.array_equal(a["state"]["counter"], b["state"]["counter"])
        and np.array_equal(a["buffer"], b["buffer"])
        and a["buffer_pos"] == b["buffer_pos"]
        and a["has_uint32"] == b["has_uint32"]
        and a["uinteger"] == b["uinteger"]
    )
