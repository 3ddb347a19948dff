"""Bit-exact MXFP4 codec: E2M1 elements, one shared power-of-two scale
per 32-element block.

Nibble layout: bit 3 = sign, bits 0..2 = magnitude index into the E2M1 value
table {0, 0.5, 1, 1.5, 2, 3, 4, 6}. The block scale is an E8M0-style biased
exponent (bias 127). ``encode_array`` and ``decode_array`` map (n, 32)
blocks to scale exponents and codes and back; ``_pack`` and ``_unpack``
serialize a block as 17 bytes, 1 scale byte then 16 code bytes, two codes
per byte, low nibble first. Negative zero is canonicalized to +0 on encode.
A matrix is blocked row by row (``_blocks``), each row zero-padded to whole
blocks: ``mxfp4_fake_quant`` and the MXT4 container share that one layout.
The runtime quantizes weights and inputs through ``MXFP4.apply``.
"""

import struct

import numpy as np

from .errors import MalformedBlock, NonFiniteInput

BLOCK_SIZE = 32
BLOCK_BYTES = 17
SCALE_BIAS = 127
MAX_SCALE_EXP = 254

E2M1_VALUES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0])
# the magnitude index of each E2M1 value v, looked up at 2v
_INDEX_OF_TWICE = np.zeros(13, dtype=np.uint8)
_INDEX_OF_TWICE[(2 * E2M1_VALUES).astype(np.int64)] = np.arange(8)


def _e2m1(m: np.ndarray) -> np.ndarray:
    """The nearest E2M1 magnitude to each m >= 0 (float64, already divided
    by its block scale), ties away from zero, saturating at 6. At m >= 1,
    adding 2^50 to the bit pattern and clearing its low 51 bits rounds to
    one mantissa bit, ties up, a carry going into the exponent: 1, 1.5, 2,
    3, 4, 6 or 8, then min 6. Below 1: 0, 0.5 or 1, split at 0.25 and 0.75."""
    big = ((m.view(np.int64) + (1 << 50)) & -(1 << 51)).view(np.float64)
    np.minimum(big, 6.0, out=big)
    small = (m >= 0.25).astype(np.float64)
    small += m >= 0.75
    small *= 0.5
    return np.where(m >= 1.0, big, small)


def _scaled(x: np.ndarray):
    """Blocks (n_blocks, 32) -> (scale_exps, magnitudes |x| / 2^(scale_exp
    - 127)), raising ``NonFiniteInput`` unless every block max is finite:
    a NaN or an infinity makes its block's max NaN or infinite."""
    mag = np.abs(x)
    amax = mag.max(axis=1)
    if not np.isfinite(amax).all():
        raise NonFiniteInput("MXFP4 encode requires finite inputs")
    nonzero = amax > 0
    exps = np.full(x.shape[0], SCALE_BIAS, dtype=np.int64)
    floor_log2 = np.frexp(amax[nonzero])[1] - 1  # amax = m * 2^e, 0.5 <= m < 1
    exps[nonzero] = np.clip(floor_log2 - 2 + SCALE_BIAS, 0, MAX_SCALE_EXP)
    mag *= np.exp2((SCALE_BIAS - exps).astype(np.float64))[:, None]  # = mag / 2^e
    return exps, mag


def encode_array(x: np.ndarray):
    """Vectorized encode of shape (n_blocks, 32) -> (scale_exps, codes).

    scale_exp = clamp(floor(log2(max|x|)) - 2 + 127, 0, 254); -2 because
    the largest E2M1 magnitude 6 has exponent 2. floor(log2(.)) is read
    exactly from the float's exponent (``np.frexp``); ``np.log2`` of a value
    one ulp below 2^k can round up to k. An all-zero block has scale_exp
    127. Elements round to the nearest E2M1 value, ties away from zero;
    magnitudes above 6 saturate.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != BLOCK_SIZE:
        raise MalformedBlock(f"blocks must be {BLOCK_SIZE} wide, got shape {x.shape}")
    exps, mag = _scaled(x)
    idx = _INDEX_OF_TWICE[(2.0 * _e2m1(mag)).astype(np.int64)]
    sign = ((x < 0) & (idx > 0)).astype(np.uint8)  # -0 canonicalized to +0
    codes = (sign << 3) | idx
    return exps, codes


def decode_array(exps: np.ndarray, codes: np.ndarray) -> np.ndarray:
    exps = np.asarray(exps, dtype=np.int64)
    codes = np.asarray(codes, dtype=np.uint8)
    vals = E2M1_VALUES[codes & 0x7] * np.where(codes & 0x8, -1.0, 1.0)
    return vals * np.exp2((exps - SCALE_BIAS).astype(np.float64))[:, None]


def _pack(exps: np.ndarray, codes: np.ndarray) -> np.ndarray:
    """Serialize blocks: (n,) scale exponents and (n, 32) codes -> (n, 17)
    bytes, the scale byte then two codes per byte, low nibble first."""
    rows = np.empty((len(exps), BLOCK_BYTES), dtype=np.uint8)
    rows[:, 0] = exps
    rows[:, 1:] = (codes[:, 0::2] & 0xF) | ((codes[:, 1::2] & 0xF) << 4)
    return rows


def _unpack(rows: np.ndarray):
    """Inverse of ``_pack``: (n, 17) bytes -> (scale_exps, codes)."""
    if rows.ndim != 2 or rows.shape[1] != BLOCK_BYTES:
        raise MalformedBlock(f"blocks must be {BLOCK_BYTES} bytes, got shape {rows.shape}")
    if np.any(rows[:, 0] > MAX_SCALE_EXP):
        raise MalformedBlock(f"block scale above {MAX_SCALE_EXP}")
    codes = np.empty((len(rows), BLOCK_SIZE), dtype=np.uint8)
    codes[:, 0::2] = rows[:, 1:] & 0xF
    codes[:, 1::2] = rows[:, 1:] >> 4
    return rows[:, 0].astype(np.int64), codes


# --- tensor container ---------------------------------------------------------
# header: magic b"MXT4", u32 rows, u32 cols, u32 pad (zero elements appended to
# each row to fill its last block); payload: rows * ceil(cols/32) serialized
# blocks, row after row.

_TENSOR_MAGIC = b"MXT4"
_HEADER = struct.Struct("<4sIII")


def _blocks(x: np.ndarray) -> np.ndarray:
    """Each row of ``x`` zero-padded to whole blocks, so that no block
    straddles two rows: (rows * ceil(cols/32), 32)."""
    pad = -x.shape[1] % BLOCK_SIZE
    return (np.pad(x, ((0, 0), (0, pad))) if pad else x).reshape(-1, BLOCK_SIZE)


def encode_tensor(x: np.ndarray) -> bytes:
    x = np.asarray(x, dtype=np.float64)
    rows, cols = x.shape
    body = _pack(*encode_array(_blocks(x)))
    return _HEADER.pack(_TENSOR_MAGIC, rows, cols, -cols % BLOCK_SIZE) + body.tobytes()


def decode_tensor(raw: bytes) -> np.ndarray:
    if len(raw) < _HEADER.size:
        raise MalformedBlock("tensor payload shorter than header")
    magic, rows, cols, pad = _HEADER.unpack_from(raw)
    if magic != _TENSOR_MAGIC:
        raise MalformedBlock(f"bad tensor magic {magic!r}")
    if pad != -cols % BLOCK_SIZE:
        raise MalformedBlock(f"pad {pad} does not fill the last block of a row of {cols}")
    body = np.frombuffer(raw, dtype=np.uint8, offset=_HEADER.size)
    if body.size != rows * (cols + pad) // BLOCK_SIZE * BLOCK_BYTES:
        raise MalformedBlock("tensor payload length mismatch")
    vals = decode_array(*_unpack(body.reshape(-1, BLOCK_BYTES)))
    return vals.reshape(rows, cols + pad)[:, :cols]


def mxfp4_fake_quant(x: np.ndarray) -> np.ndarray:
    """Round-trip a matrix through MXFP4 blocks, each row on its own: the
    values ``decode_array(*encode_array(_blocks(x)))`` holds, without the
    codes. ``+ 0.0`` turns a -0 rounded from a small negative into +0."""
    x = np.asarray(x, dtype=np.float64)
    rows, cols = x.shape
    blocks = _blocks(x)
    exps, mag = _scaled(blocks)
    vals = np.copysign(_e2m1(mag), blocks)
    vals *= np.exp2((exps - SCALE_BIAS).astype(np.float64))[:, None]
    vals += 0.0
    return vals.reshape(rows, -(-cols // BLOCK_SIZE) * BLOCK_SIZE)[:, :cols]


class Mxfp4Codec:
    """MXFP4 as a quantizer. ``apply`` looks ``mxfp4_fake_quant`` up when
    called, so a wrapper bound over the module function sees every call."""

    def apply(self, x: np.ndarray) -> np.ndarray:
        return mxfp4_fake_quant(x)


MXFP4 = Mxfp4Codec()
