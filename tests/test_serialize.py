import hashlib
import json
import math
import struct

import numpy as np
import pytest

from etfforge.errors import InvalidArgumentError
from etfforge.serialize import (
    dumps,
    matrix_from_obj,
    matrix_to_obj,
    pair_from_obj,
    pair_to_obj,
    read_json,
    sha256_text,
    witness_from_obj,
    witness_to_obj,
    write_json,
)


def _bits(x):
    return struct.pack("<d", float(x))


def test_write_json_round_trips_floats_bitwise(tmp_path):
    samples = [
        0.0,
        -0.0,
        1.0,
        1e16,
        1.0 / 3.0,
        0.1 + 0.2,
        math.pi,
        2.0 ** -1022,      # smallest normal
        5e-324,            # smallest subnormal
        1.7976931348623157e308,
        -1.2345678901234567e-5,
    ]
    rng = np.random.default_rng(7)
    samples += [float(x) for x in rng.standard_normal(200)]
    samples += [float(x) for x in rng.standard_normal(50) * 1e12]
    path = tmp_path / "floats.json"
    write_json(str(path), {"v": samples})
    back = read_json(str(path))["v"]
    assert [type(x) for x in back] == [float] * len(samples)
    assert [_bits(x) for x in back] == [_bits(x) for x in samples]


def test_dumps_rejects_non_finite():
    for bad in [float("inf"), float("-inf"), float("nan"), np.float64("nan")]:
        with pytest.raises(InvalidArgumentError):
            dumps({"v": [bad]})


def test_dumps_is_valid_json_and_stable():
    obj = {"a": [1, 2.5, "s", None, True], "b": {"c": 0.1}}
    text = dumps(obj)
    assert json.loads(text) == {"a": [1, 2.5, "s", None, True], "b": {"c": 0.1}}
    # byte-identical on repeat, both compact and indented
    assert dumps(obj) == text
    assert dumps(obj, indent=2) == dumps(obj, indent=2)
    assert "\n" in dumps(obj, indent=2)
    assert "\n" not in text


def test_dumps_handles_numpy_scalars():
    text = dumps({"i": np.int64(3), "f": np.float64(0.25), "g": np.float32(0.5)})
    assert text == '{"i":3,"f":0.25,"g":0.5}'


def test_dumps_rejects_unserializable():
    with pytest.raises(InvalidArgumentError):
        dumps({"x": object()})


def test_sha256_text_known_value():
    # sha256 of the empty string is a universal constant
    assert sha256_text("") == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    )


def test_write_json_digest_matches_file(tmp_path):
    path = tmp_path / "doc.json"
    digest = write_json(str(path), {"v": [0.1, 0.2, 0.30000000000000004]})
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    back = read_json(str(path))
    assert back["v"][2] == 0.30000000000000004


def test_read_json_keeps_negative_zero(tmp_path):
    # floats are written as repr, so -0.0 and integral floats stay floats
    path = tmp_path / "zeros.json"
    write_json(str(path), {"v": [-0.0, 0.0, 0, -1.0, 3]})
    back = read_json(str(path))
    assert [_bits(x) for x in back["v"]] == [_bits(x) for x in (-0.0, 0.0, 0, -1.0, 3)]
    assert [type(x) for x in back["v"]] == [float, float, int, float, int]
    assert dumps(back) == dumps({"v": [-0.0, 0.0, 0, -1.0, 3]})


def test_matrix_round_trip_exact():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    obj = matrix_to_obj(a, kind="gram")
    b, kind = matrix_from_obj(obj)
    assert kind == "gram"
    assert b.shape == (3, 5)
    assert np.array_equal(a, b)


def test_matrix_obj_schema_fields():
    obj = matrix_to_obj(np.eye(2))
    assert set(obj) == {"kind", "rows", "cols", "re", "im"}
    assert obj["rows"] == 2 and obj["cols"] == 2
    assert obj["im"] == [[0.0, 0.0], [0.0, 0.0]]


def test_matrix_from_obj_rejects_malformed():
    with pytest.raises(InvalidArgumentError):
        matrix_from_obj({"rows": 2, "cols": 2, "re": [[1.0]]})
    with pytest.raises(InvalidArgumentError):
        matrix_from_obj({"rows": 2, "cols": 2, "re": [[1, 0], [0, 1]], "im": [[0, 0]]})
    with pytest.raises(InvalidArgumentError):
        matrix_to_obj(np.zeros(4))


def test_pair_round_trip():
    x = np.array([1.0, 0.5j, -0.25])
    y = np.array([0.0, 1.0, 1.0 + 1.0j])
    obj = pair_to_obj(3, x, y)
    assert obj["kind"] == "circulant-generators"
    assert obj["t"] == 2
    d, x2, y2 = pair_from_obj(obj)
    assert d == 3
    assert np.array_equal(x, x2)
    assert np.array_equal(y, y2)


def test_pair_obj_rejects_bad_documents():
    x = np.zeros(3)
    with pytest.raises(InvalidArgumentError):
        pair_to_obj(4, x, x)
    good = pair_to_obj(3, x, x)
    bad = dict(good)
    bad["kind"] = "something-else"
    with pytest.raises(InvalidArgumentError):
        pair_from_obj(bad)
    bad = dict(good)
    bad["x_re"] = bad["x_re"][:-1]
    with pytest.raises(InvalidArgumentError):
        pair_from_obj(bad)
    bad = dict(good)
    bad["t"] = 3
    with pytest.raises(InvalidArgumentError):
        pair_from_obj(bad)


def test_witness_round_trip():
    sigma = [1, 2, 3, 0]
    c = np.exp(2j * np.pi * np.arange(4) / 4)
    obj = witness_to_obj(sigma, c, 4, 1)
    assert set(obj) == {"sigma", "c_re", "c_im", "m", "t"}
    s2, c2, m, t = witness_from_obj(obj)
    assert s2 == sigma
    assert np.array_equal(c, c2)
    assert (m, t) == (4, 1)


def test_witness_from_obj_rejects_length_mismatch():
    obj = witness_to_obj([0, 1], [1.0, 1.0], 2, 1)
    obj["c_re"] = [1.0]
    with pytest.raises(InvalidArgumentError):
        witness_from_obj(obj)
    with pytest.raises(InvalidArgumentError):
        witness_from_obj({"sigma": [0]})
