import json
import struct
from pathlib import Path

import pytest

from quantlab.rng import make_rng
from quantlab.toymodel import ToyConfig, init_model


@pytest.fixture(scope="session")
def tiny_model():
    """Default two-layer toy model, seed 0."""
    return init_model(ToyConfig(), make_rng(0))


@pytest.fixture(scope="session")
def biased_model():
    """Same config with a magnitude-400 K-bias outlier in layer 0, channel 5."""
    return init_model(ToyConfig(), make_rng(0), k_bias_outlier=(0, 5, 400.0))


@pytest.fixture()
def rng():
    return make_rng(0)


def rewrite_header(src, dst, edit) -> None:
    """Copy a TQM1/TQQ1 file to ``dst`` with ``edit`` applied to its parsed
    JSON header. The new header is padded with spaces to the old length, so
    the absolute data offsets stay valid; ``edit`` must not lengthen it."""
    raw = bytearray(Path(src).read_bytes())
    n = struct.unpack_from("<I", raw, 5)[0]
    header = json.loads(raw[9 : 9 + n])
    edit(header)
    new = json.dumps(header, separators=(",", ":")).encode()
    assert len(new) <= n
    raw[9 : 9 + n] = new.ljust(n)
    Path(dst).write_bytes(bytes(raw))
