"""Wire codecs: round-trip exactness, determinism, byte accounting."""

import json

import numpy as np
import pytest

from repro.distributed import WIRE_CODECS, decode_wire, wire_codec

LOSSLESS = [n for n in WIRE_CODECS if not n.startswith("dpr-")]
LOSSY = [n for n in WIRE_CODECS if n.startswith("dpr-")]


def _gradient_like(seed: int, sparsity: float = 0.6) -> np.ndarray:
    """A sparse-ish tensor shaped like a post-ReLU gradient."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0, 0.1, (7, 33)).astype(np.float32)
    x[rng.random(x.shape) < sparsity] = 0.0
    return x


@pytest.mark.parametrize("name", LOSSLESS)
def test_lossless_roundtrip_is_bit_exact(name):
    x = _gradient_like(0)
    codec = wire_codec(name)
    message = codec.encode(x)
    reference = x + np.float32(0.0) if message["codec"] == "csr" else x
    assert decode_wire(message).tobytes() == reference.tobytes()


def test_rle_and_auto_preserve_negative_zero():
    x = _gradient_like(1)
    x[0, 0] = np.float32(-0.0)
    for name in ("rle", "auto", "fp32"):
        message = wire_codec(name).encode(x)
        decoded = decode_wire(message)
        assert decoded.tobytes() == x.tobytes(), name
        assert np.signbit(decoded[0, 0])


def test_auto_skips_csr_when_negative_zero_present():
    x = _gradient_like(2, sparsity=0.95)  # csr would win on size
    assert wire_codec("auto").encode(x)["codec"] == "csr"
    x[3, 3] = np.float32(-0.0)
    assert wire_codec("auto").encode(x)["codec"] != "csr"


def test_auto_picks_cheapest_representation():
    dense = np.full((16, 16), 1.5, dtype=np.float32)
    assert wire_codec("auto").encode(dense)["codec"] == "fp32"
    sparse = np.zeros((16, 16), dtype=np.float32)
    sparse[0, 0] = 1.0
    picked = wire_codec("auto").encode(sparse)
    assert picked["codec"] in ("rle", "csr")
    assert picked["wire_bytes"] < dense.nbytes


@pytest.mark.parametrize("name", LOSSY)
def test_lossy_codecs_are_deterministic(name):
    x = _gradient_like(3, sparsity=0.0)
    codec = wire_codec(name)
    assert codec.encode(x) == codec.encode(x)
    assert not codec.lossless
    first = decode_wire(codec.encode(x))
    assert first.tobytes() == decode_wire(codec.encode(x)).tobytes()


def test_dpr_fp8_moves_four_times_fewer_bytes():
    """One byte per element, padded to a 4-byte word: ``4 * ceil(n / 4)``
    bytes against fp32's ``4 * n``.  So every gradient of >= 2 elements
    moves >= 2x fewer bytes, on any model: the ratio is the codec's size
    rule, not a property of the network."""
    codec = wire_codec("dpr-fp8")
    for n in (1, 2, 3, 4, 5, 6, 7, 8, 9, 256, 257):
        message = codec.encode(np.ones(n, dtype=np.float32))
        assert message["wire_bytes"] == 4 * -(-n // 4), n


def test_messages_survive_json_round_trip():
    x = _gradient_like(5)
    for name in WIRE_CODECS:
        message = wire_codec(name).encode(x)
        replayed = json.loads(json.dumps(message))
        assert decode_wire(replayed).tobytes() \
            == decode_wire(message).tobytes(), name


def test_unknown_codec_rejected():
    with pytest.raises(ValueError, match="unknown wire codec"):
        wire_codec("gzip")
    with pytest.raises(ValueError, match="unknown wire codec"):
        decode_wire({"codec": "gzip", "shape": [1]})
