import json
import struct
from pathlib import Path

import pytest
from hypothesis import strategies as st

from quantlab.rng import make_rng
from quantlab.toymodel import ToyConfig, init_model


# (temperature, top_p, the argument named in the error) that every
# sampler's entry point rejects: a temperature that is negative or not
# finite, a top_p outside (0, 1]
NAN, INF = float("nan"), float("inf")
BAD_SAMPLING = {"negative-temperature": (-1.0, 0.9, "temperature"),
                "nan-temperature": (NAN, 0.9, "temperature"),
                "inf-temperature": (INF, 0.9, "temperature"),
                "top-p-zero": (0.6, 0.0, "top_p"), "top-p-above-one": (0.6, 7.0, "top_p"),
                "top-p-nan": (0.6, NAN, "top_p")}
BAD_TEMPERATURES = [case for case, (*_, arg) in BAD_SAMPLING.items()
                    if arg == "temperature"]


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


def with_header_room(raw: bytes, room: int = 1024) -> bytes:
    """A TQM1/TQQ1 file whose JSON header is followed by ``room`` spaces
    (a multiple of 64): the blobs move up by ``room``, and every offset a
    manifest entry holds with them, so the file loads as before but a header
    edit has room to lengthen it."""
    n = struct.unpack_from("<I", raw, 5)[0]
    start = -(-(9 + n) // 64) * 64
    header = json.loads(raw[9 : 9 + n])
    for entries in header.values():
        for entry in entries if isinstance(entries, list) else ():
            for key in entry:
                if key.endswith("offset"):
                    entry[key] += room
    new = json.dumps(header, separators=(",", ":")).encode().ljust(start + room - 9)
    return raw[:5] + struct.pack("<I", len(new)) + new + raw[start:]


JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2**40, 2**40), st.integers(0, 2**31),
    st.floats(), st.text(max_size=6), st.lists(st.integers(-1, 2**31), max_size=3))


def _edit_header(header: dict, data, manifests) -> None:
    """One rewrite of a parsed header: ``n_layers`` set to up to 2^31, a
    config or plan value set or dropped, or, in a manifest, an entry removed,
    repeated or renamed, or one of its fields (or of its ``spec``) set or
    dropped."""
    part = data.draw(st.sampled_from(
        [p for p in ("n_layers", "config", "plan", *manifests) if p in header
         or p == "n_layers"]))
    if part == "n_layers":
        header["config"]["n_layers"] = data.draw(st.integers(1, 2**31))
        return
    target = header[part]
    if part in manifests:
        if not target:
            return
        i = data.draw(st.integers(0, len(target) - 1))
        action = data.draw(st.sampled_from(["remove", "repeat", "rename", "field"]))
        if action == "remove":
            del target[i]
            return
        if action == "repeat":
            target.append(json.loads(json.dumps(target[i])))
            return
        if action == "rename":
            names = [e["name"] for m in manifests for e in header.get(m, [])]
            target[i]["name"] = data.draw(st.sampled_from(names) | st.text(max_size=6))
            return
        target = target[i]
        if "spec" in target and data.draw(st.booleans()):
            target = target["spec"]
    key = data.draw(st.sampled_from(sorted(target)) | st.text(max_size=4))
    if data.draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = data.draw(JSON_VALUES)


def mutate_container(raw: bytes, data, manifests) -> bytes:
    """``raw`` truncated, with one bit flipped, or with its JSON header
    rewritten (``_edit_header``; the header is padded back to its length
    when the edit fits, so the blob offsets stay valid)."""
    kind = data.draw(st.sampled_from(["truncate", "flip", "header"]))
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if kind == "flip":
        out = bytearray(raw)
        out[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
        return bytes(out)
    n = struct.unpack_from("<I", raw, 5)[0]
    header = json.loads(raw[9 : 9 + n])
    _edit_header(header, data, manifests)
    new = json.dumps(header, separators=(",", ":")).encode()
    new = new.ljust(n) if len(new) <= n else new
    return raw[:5] + struct.pack("<I", len(new)) + new + raw[9 + n :]
