import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quantlab.errors import MalformedBlock, NonFiniteInput
from quantlab.mxfp4 import (
    BLOCK_BYTES,
    BLOCK_SIZE,
    E2M1_VALUES,
    _blocks,
    _pack,
    _unpack,
    decode_array,
    decode_tensor,
    encode_array,
    encode_tensor,
    mxfp4_fake_quant,
)
from quantlab.rng import make_rng


MIDPOINTS = (E2M1_VALUES[:-1] + E2M1_VALUES[1:]) / 2.0  # 0.25, 0.75, ..., 5


def encode_one(x):
    """One block of 32 values -> (scale_exp, codes) by ``encode_array``."""
    exps, codes = encode_array(np.asarray(x)[None, :])
    return int(exps[0]), codes[0]


def round_trip_one(x):
    """One block of 32 values through ``encode_array`` and ``decode_array``."""
    return decode_array(*encode_array(np.asarray(x)[None, :]))[0]


def codec_round_trip(x):
    """``decode_array(*encode_array(_blocks(x)))`` cropped to ``x``'s shape."""
    rows, cols = x.shape
    vals = decode_array(*encode_array(_blocks(x)))
    return vals.reshape(rows, -(-cols // BLOCK_SIZE) * BLOCK_SIZE)[:, :cols]


def nearest_e2m1(x):
    """The rounding rule written out: each magnitude over its block scale
    takes the E2M1 value above every midpoint it reaches (ties away from
    zero; above 5, 6), with x's sign and -0 made +0."""
    rows, cols = x.shape
    blocks = _blocks(x)
    scale = np.exp2(encode_array(blocks)[0] - 127.0)[:, None]
    idx = (np.abs(blocks)[..., None] / scale[..., None] >= MIDPOINTS).sum(axis=-1)
    vals = np.where(blocks < 0, -1.0, 1.0) * E2M1_VALUES[idx] * scale + 0.0
    return vals.reshape(rows, -(-cols // BLOCK_SIZE) * BLOCK_SIZE)[:, :cols]


def nudged(v, k):
    """v moved k ulps (k < 0: toward -inf)."""
    for _ in range(abs(k)):
        v = np.nextafter(v, np.copysign(np.inf, k))
    return v


def nearest_codebook_error(x, scale_exps):
    """Best achievable |error| per element over the full 16-entry codebook."""
    grid = np.concatenate([-E2M1_VALUES[::-1], E2M1_VALUES])
    s = np.exp2(scale_exps.astype(np.float64) - 127.0)
    d = np.abs(x[:, :, None] - s[:, None, None] * grid[None, None, :])
    return np.min(d, axis=2)


class TestEncode:
    def test_all_zero_block(self):
        exp, codes = encode_one(np.zeros(32))
        assert exp == 127
        assert np.all(codes == 0)

    def test_representable_values_exact(self):
        x = np.zeros(32)
        x[:8] = E2M1_VALUES
        x[8:16] = -E2M1_VALUES
        assert np.array_equal(round_trip_one(x), np.where(x == -0.0, 0.0, x))

    def test_ties_round_away_from_zero(self):
        x = np.zeros(32)
        x[0], x[1], x[2] = 6.0, 2.5, -0.25  # scale 2^0; midpoints 2.5 and 0.25
        y = round_trip_one(x)
        assert y[1] == 3.0 and y[2] == -0.5

    def test_saturation_above_six(self):
        x = np.zeros(32)
        x[0] = 6.0
        x[1] = 6.3  # same scale block, beyond the largest magnitude
        y = round_trip_one(x)
        assert y[1] == 6.0

    @pytest.mark.parametrize("k", range(-6, 12))
    def test_shared_exponent_is_floor_log2(self, k):
        """scale_exp is floor(log2(max|x|)) - 2 + 127, exactly, on both sides
        of a power of two: np.log2 rounds one ulp below 2^k up to k for some
        k, which would decode 2^k - ulp as 2^k rather than saturate."""
        for amax, floor_log2 in ((np.nextafter(2.0**k, 0.0), k - 1), (2.0**k, k)):
            for sign in (1.0, -1.0):
                x = np.zeros(32)
                x[0] = sign * amax
                assert encode_one(x)[0] == floor_log2 - 2 + 127
                scale = 2.0 ** (floor_log2 - 2)
                assert round_trip_one(x)[0] == sign * (6.0 * scale if floor_log2 < k
                                                       else 4.0 * scale)

    def test_negative_zero_canonicalized(self):
        x = np.zeros(32)
        x[0] = -0.0
        assert encode_one(x)[1][0] == 0  # sign bit cleared

    def test_nonfinite_rejected(self):
        x = np.zeros(32)
        x[0] = np.inf
        with pytest.raises(NonFiniteInput):
            encode_one(x)

    @pytest.mark.parametrize("shape", [(1, 31), (2, 33), (32,), (0, 16)])
    def test_block_width_other_than_32_rejected(self, shape):
        with pytest.raises(MalformedBlock, match="32 wide"):
            encode_array(np.zeros(shape))

    def test_nearest_value_optimality_random(self):
        rng = make_rng(0)
        x = rng.standard_normal((500, 32)) * np.exp(
            rng.uniform(-6, 6, size=(500, 1)))
        exps, codes = encode_array(x)
        err = np.abs(decode_array(exps, codes) - x)
        assert np.all(err <= nearest_codebook_error(x, exps) + 1e-12)


class TestFakeQuantIsTheCodec:
    """``mxfp4_fake_quant`` skips the codes, and must still give the bytes
    the codec's round trip gives, on the rounding edges above all."""

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_midpoints_within_two_ulp(self, data):
        rows = data.draw(st.integers(0, 3), label="rows")
        cols = data.draw(st.sampled_from([1, 7, 32, 33, 48, 64, 70]), label="cols")
        x = np.empty((rows, cols))
        for i in range(rows):
            exp = data.draw(st.one_of(st.integers(-140, 130), st.integers(-1080, 1020)),
                            label="scale exponent")
            row = [nudged(data.draw(st.sampled_from(MIDPOINTS)), data.draw(
                st.integers(-2, 2))) * data.draw(st.sampled_from([1.0, -1.0]))
                   for _ in range(cols)]
            if data.draw(st.booleans(), label="first of each block 6"):
                row[::BLOCK_SIZE] = [6.0] * len(row[::BLOCK_SIZE])
            x[i] = np.array(row) * 2.0**exp
        y = mxfp4_fake_quant(x)
        assert y.shape == x.shape
        assert y.tobytes() == codec_round_trip(x).tobytes()
        assert y.tobytes() == nearest_e2m1(x).tobytes()

    @pytest.mark.parametrize("row", [
        [6.0, 7.0, np.nextafter(8.0, 0.0), 5.0, -7.0],
        [8.0, 6.0, 7.0, np.nextafter(8.0, 0.0)],
        [6.0, nudged(0.25, -1), 0.25, nudged(0.25, 1), nudged(0.75, -1), 0.75],
        [-0.0, 0.0, -0.0],
        [0.0],
        [-0.0, 6.0, -0.1, -1e-30],
        [1e-300, -3e-301, 7e-301],
        [1e300, -2.5e299, 6e299],
        [np.finfo(np.float64).max, -1.0],
        [5e-324, -1e-323, 2.5e-323, 0.0],
        [np.finfo(np.float64).tiny, -np.finfo(np.float64).tiny / 4, 3e-320],
    ], ids=["saturate", "eight", "below-one", "signed-zeros", "zero", "negative-small",
            "near-1e-300", "near-1e300", "float-max", "subnormal", "tiny"])
    @pytest.mark.parametrize("cols", [33, 48])
    def test_edge_rows(self, row, cols):
        """Each case tiled along a row of width 33 or 48, the row negated
        below it and an all-zero row below that."""
        x = np.zeros((3, cols))
        x[0] = np.resize(row, cols)
        x[1] = -x[0]
        y = mxfp4_fake_quant(x)
        assert y.tobytes() == codec_round_trip(x).tobytes()
        assert y.tobytes() == nearest_e2m1(x).tobytes()
        assert not np.signbit(y[2]).any()

    def test_saturates_at_six(self):
        x = np.zeros((1, 32))
        x[0, :4] = 6.0, 7.0, np.nextafter(8.0, 0.0), 5.0
        assert mxfp4_fake_quant(x)[0, :4].tolist() == [6.0, 6.0, 6.0, 6.0]
        x[0, 0] = 8.0  # scale 2: 3.5 and 4 - ulp round to 4, the tie 2.5 to 3
        assert mxfp4_fake_quant(x)[0, :4].tolist() == [8.0, 8.0, 8.0, 6.0]

    def test_just_below_a_quarter_rounds_to_zero(self):
        """0.25 - 2^-55 is below the first midpoint: 0, not 0.5, which
        floor(2m + 0.5) / 2 would give, since 2m + 0.5 rounds up to 1."""
        x = np.zeros((1, 32))
        x[0, :3] = 6.0, nudged(0.25, -1), 0.25
        assert x[0, 1] == 0.25 - 2.0**-55
        assert mxfp4_fake_quant(x)[0, :3].tolist() == [6.0, 0.0, 0.5]

    @pytest.mark.parametrize("cols", [0, 33, 48])
    def test_no_rows(self, cols):
        x = np.zeros((0, cols))
        assert mxfp4_fake_quant(x).shape == (0, cols)
        assert codec_round_trip(x).shape == (0, cols)
        assert decode_tensor(encode_tensor(x)).shape == (0, cols)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 35, 47])
    def test_nonfinite_raises(self, bad, where):
        x = np.ones((2, 48))
        x[1, where] = bad
        for encode in (mxfp4_fake_quant, encode_tensor,
                       lambda x: encode_array(_blocks(x))):
            with pytest.raises(NonFiniteInput):
                encode(x)


class TestDecode:
    def test_table_lookup(self):
        # magnitude index 1 = 0.5, scale 2^(130-127) = 8 -> 4.0
        codes = np.concatenate([[1], np.zeros(31)]).astype(np.uint8)
        assert decode_array(np.array([130]), codes[None, :])[0, 0] == 4.0

    def test_exhaustive_value_table(self):
        for exp in (125, 127, 130):
            s = 2.0 ** (exp - 127)
            codes = np.arange(16, dtype=np.uint8)
            vals = decode_array(np.array([exp]),
                                np.pad(codes, (0, 16))[None, :])[0][:16]
            expect = np.concatenate([E2M1_VALUES * s, -E2M1_VALUES * s])
            assert np.array_equal(vals, np.where(expect == -0.0, 0.0, expect))

    def test_exhaustive_code_idempotence(self):
        # every decodable value re-encodes to itself (up to -0 -> +0)
        for exp in (120, 127, 133):
            codes = np.tile(np.arange(16, dtype=np.uint8), 2)
            vals = decode_array(np.array([exp]), codes[None, :])[0]
            back = decode_array(*encode_array(vals[None, :]))[0]
            assert np.array_equal(back, vals)


class TestSerialization:
    def test_block_is_17_bytes_and_bijective(self):
        rng = make_rng(1)
        exps = rng.integers(0, 255, 20)
        codes = rng.integers(0, 16, size=(20, 32)).astype(np.uint8)
        raw = _pack(exps, codes)
        assert raw.shape == (20, BLOCK_BYTES)
        back_exps, back_codes = _unpack(raw)
        assert np.array_equal(back_exps, exps) and np.array_equal(back_codes, codes)
        assert np.array_equal(_pack(back_exps, back_codes), raw)

    @pytest.mark.parametrize("rows,cols", [(1, 5), (2, 32), (3, 37), (4, 48)])
    def test_tensor_bytes_are_the_block_layout(self, rows, cols):
        """encode_tensor writes the header, whose pad is the zeros that fill
        each row's last block, then each row's blocks in turn, each block as
        FORMATS.md lays it out: the scale byte, then codes 2i (low nibble)
        and 2i+1 (high nibble) in byte i; decode_tensor reads it back block
        by block."""
        per_row = -(-cols // 32)
        n_blocks = rows * per_row
        # block scale exponents 0 (clamped), 127 and 254 in turn
        amax = np.array([2.0 ** -130, 5.0, 1.5 * 2.0 ** 129])[np.arange(n_blocks) % 3]
        unit = make_rng(rows * cols).uniform(-1.0, 1.0, size=(n_blocks, 32))
        unit[:, 0] = -1.0  # each block's largest magnitude is its amax
        x = (unit * amax[:, None]).reshape(rows, per_row * 32)[:, :cols]
        exps, codes = encode_array(np.pad(x, ((0, 0), (0, -cols % 32)))
                                   .reshape(n_blocks, 32))
        assert exps.tolist() == [(0, 127, 254)[i % 3] for i in range(n_blocks)]
        blocks = [bytes([int(e)]) + bytes(int(c[2 * i]) | int(c[2 * i + 1]) << 4
                                          for i in range(16))
                  for e, c in zip(exps, codes)]
        raw = encode_tensor(x)
        assert raw == (struct.pack("<4sIII", b"MXT4", rows, cols, -cols % 32)
                       + b"".join(blocks))
        assert [row.tobytes() for row in _pack(exps, codes)] == blocks
        rows_back = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, BLOCK_BYTES)
        want = decode_array(*_unpack(rows_back))
        assert np.array_equal(decode_tensor(raw),
                              want.reshape(rows, per_row * 32)[:, :cols])

    @pytest.mark.parametrize("rows,cols", [
        (1, 5), (2, 32), (3, 37), (4, 48), (5, 13), (0, 37), (3, 0)])
    def test_one_layout_row_by_row(self, rows, cols):
        """mxfp4_fake_quant blocks each row on its own, and the MXT4
        container stores exactly its round trip. Each row is 8x the scale of
        the one before, so a block that straddled two rows would differ."""
        x = make_rng(rows * 100 + cols).standard_normal((rows, cols))
        x *= 8.0 ** np.arange(rows)[:, None]
        y = mxfp4_fake_quant(x)
        assert y.shape == (rows, cols)
        for i in range(rows):
            assert mxfp4_fake_quant(x[i : i + 1])[0].tobytes() == y[i].tobytes()
        back = decode_tensor(encode_tensor(x))
        assert back.shape == (rows, cols) and back.tobytes() == y.tobytes()

    @pytest.mark.parametrize("rows,cols", [(2, 17), (5, 13)])
    def test_straddling_layout_rejected(self, rows, cols):
        """A container laid out in row-major blocks that straddle rows, pad
        filling only the last block, never decodes: 2x17 (pad 30, 2 blocks)
        fails the pad check, and 5x13 fails it and, with the pad put right,
        the length check."""
        x = make_rng(rows * cols).standard_normal((rows, cols))
        flat = np.concatenate([x.ravel(), np.zeros(-x.size % 32)])
        body = _pack(*encode_array(flat.reshape(-1, 32))).tobytes()
        raw = struct.pack("<4sIII", b"MXT4", rows, cols, -x.size % 32) + body
        with pytest.raises(MalformedBlock, match="pad"):
            decode_tensor(raw)
        fixed = struct.pack("<4sIII", b"MXT4", rows, cols, -cols % 32) + body
        if len(body) == rows * -(-cols // 32) * BLOCK_BYTES:
            assert decode_tensor(fixed).shape == (rows, cols)  # only the pad tells
        else:
            with pytest.raises(MalformedBlock, match="length"):
                decode_tensor(fixed)

    def test_wrong_length_rejected(self):
        for shape in ((1, 16), (2, 18), (17,), (0, 34)):
            with pytest.raises(MalformedBlock, match="17 bytes"):
                _unpack(np.zeros(shape, dtype=np.uint8))

    def test_tensor_round_trip_with_padding(self):
        rng = make_rng(2)
        x = rng.standard_normal((5, 13))  # 65 elements -> pad 31
        y = decode_tensor(encode_tensor(x))
        assert y.shape == x.shape
        assert np.array_equal(y, mxfp4_fake_quant(x))

    def test_tensor_corruption_detected(self):
        raw = encode_tensor(np.ones((2, 32)))
        with pytest.raises(MalformedBlock):
            decode_tensor(b"XXXX" + raw[4:])
        with pytest.raises(MalformedBlock):
            decode_tensor(raw[:-1])

    @pytest.mark.parametrize("rows,cols,pad,n_blocks", [
        (1, 1, 0, 0), (1, 33, 0, 1), (1, 33, 63, 3), (2, 32, 32, 3)])
    def test_tensor_pad_must_fill_the_last_block(self, rows, cols, pad, n_blocks):
        raw = struct.pack("<4sIII", b"MXT4", rows, cols, pad) + bytes(17 * n_blocks)
        with pytest.raises(MalformedBlock, match="pad"):
            decode_tensor(raw)

    def test_scale_above_254_rejected(self):
        raw = bytearray(encode_tensor(np.ones((1, 32))))
        raw[16] = 255
        with pytest.raises(MalformedBlock):
            decode_tensor(bytes(raw))
        with pytest.raises(MalformedBlock):
            _unpack(np.frombuffer(bytes(raw[16:]), dtype=np.uint8)[None, :])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mutated_tensor_decodes_or_raises(self, data):
        """Every truncation, bit flip and header rewrite of an encoded tensor
        either decodes to the shape its header gives or is MalformedBlock."""
        rows = data.draw(st.integers(0, 3))
        cols = data.draw(st.integers(0, 70))
        x = make_rng(rows * 100 + cols).standard_normal((rows, cols)) * 4.0
        raw = bytearray(encode_tensor(x))
        kind = data.draw(st.sampled_from(["truncate", "flip", "header"]))
        if kind == "truncate":
            raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
        elif kind == "flip":
            i = data.draw(st.integers(0, len(raw) - 1))
            raw[i] ^= 1 << data.draw(st.integers(0, 7))
        else:
            field = data.draw(st.integers(1, 3))  # rows, cols or pad
            struct.pack_into("<I", raw, 4 * field, data.draw(st.one_of(
                st.integers(0, 70), st.integers(0, 2**32 - 1))))
        try:
            y = decode_tensor(bytes(raw))
        except MalformedBlock:
            return
        assert y.shape == struct.unpack_from("<II", raw, 4)
        assert np.all(np.isfinite(y))

    def test_fake_quant_idempotent(self):
        x = make_rng(3).standard_normal((4, 64))
        once = mxfp4_fake_quant(x)
        assert np.array_equal(mxfp4_fake_quant(once), once)

    def test_block_size_constant(self):
        assert BLOCK_SIZE == 32
