"""JSON emission and parsing helpers.

Documents are written with the standard json module, which spells each
float as its repr: the shortest decimal text that reads back to the same
binary64, so every value survives a write/read round trip bit for bit.
"""

import hashlib
import json

import numpy as np

from .errors import InvalidArgumentError


def _numpy_scalar(obj):
    """json's fallback: a numpy integer or float as the Python number it holds."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError("cannot serialize %r" % type(obj))


def dumps(obj, indent=None):
    """Serialize to JSON text; NaN, infinities and unknown types are refused.

    Nesting past the recursion limit raises RecursionError, as json does.
    """
    separators = (",", ":") if indent is None else (",", ": ")
    try:
        return json.dumps(obj, indent=indent, separators=separators,
                          allow_nan=False, default=_numpy_scalar)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError("cannot serialize: %s" % exc) from exc


def sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_json(path, obj, indent=2):
    """Write obj as JSON, return the sha256 digest of the file text."""
    text = dumps(obj, indent=indent) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sha256_text(text)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _real_grid(arr):
    return [[float(v) for v in row] for row in np.asarray(arr, dtype=float)]


def matrix_to_obj(data, kind="generic"):
    """Schema for a complex matrix: kind, shape, and re/im grids."""
    a = np.asarray(data, dtype=complex)
    if a.ndim != 2:
        raise InvalidArgumentError("matrix payload must be 2-D")
    return {
        "kind": str(kind),
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": _real_grid(a.real),
        "im": _real_grid(a.imag),
    }


def _require_object(obj, what):
    if not isinstance(obj, dict):
        raise InvalidArgumentError("malformed %s JSON: expected an object, got %s"
                                   % (what, type(obj).__name__))


def matrix_from_obj(obj):
    """Inverse of matrix_to_obj; returns (ndarray, kind)."""
    _require_object(obj, "matrix")
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
        kind = str(obj.get("kind", "generic"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError("malformed matrix JSON: %s" % exc) from exc
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise InvalidArgumentError("matrix JSON shape mismatch")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise InvalidArgumentError("matrix JSON has non-finite entries")
    return re + 1j * im, kind


def pair_to_obj(d, x, y):
    """Schema for a pair of circulant generators of a d x 2d frame."""
    x = np.asarray(x, dtype=complex).ravel()
    y = np.asarray(y, dtype=complex).ravel()
    if x.shape != (d,) or y.shape != (d,):
        raise InvalidArgumentError("generator length disagrees with d")
    return {
        "kind": "circulant-generators",
        "d": int(d),
        "t": 2,
        "x_re": [float(v) for v in x.real],
        "x_im": [float(v) for v in x.imag],
        "y_re": [float(v) for v in y.real],
        "y_im": [float(v) for v in y.imag],
    }


def pair_from_obj(obj):
    """Inverse of pair_to_obj; returns (d, x, y)."""
    _require_object(obj, "generator")
    try:
        if obj.get("kind") != "circulant-generators":
            raise InvalidArgumentError("not a circulant-generators document")
        d = int(obj["d"])
        if int(obj.get("t", 2)) != 2:
            raise InvalidArgumentError("only 2-generator documents supported")
        parts = [np.asarray(obj[key], dtype=float) for key in ("x_re", "x_im", "y_re", "y_im")]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError("malformed generator JSON: %s" % exc) from exc
    # each part on its own: a length-1 list would broadcast against the other
    if any(part.shape != (d,) for part in parts):
        raise InvalidArgumentError("generator length disagrees with d")
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise InvalidArgumentError("generator JSON has non-finite entries")
    x_re, x_im, y_re, y_im = parts
    return d, x_re + 1j * x_im, y_re + 1j * y_im


def witness_to_obj(sigma, c, m, t):
    c = np.asarray(c, dtype=complex).ravel()
    return {
        "sigma": [int(v) for v in sigma],
        "c_re": [float(v) for v in c.real],
        "c_im": [float(v) for v in c.imag],
        "m": int(m),
        "t": int(t),
    }


def witness_from_obj(obj):
    """Returns (sigma, c, m, t)."""
    _require_object(obj, "witness")
    try:
        sigma = [int(v) for v in obj["sigma"]]
        c_re = np.asarray(obj["c_re"], dtype=float)
        c_im = np.asarray(obj["c_im"], dtype=float)
        m, t = int(obj["m"]), int(obj["t"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError("malformed witness JSON: %s" % exc) from exc
    if c_re.shape != c_im.shape:
        raise InvalidArgumentError("witness scalar parts disagree in length")
    if not (np.all(np.isfinite(c_re)) and np.all(np.isfinite(c_im))):
        raise InvalidArgumentError("witness JSON has non-finite entries")
    c = c_re + 1j * c_im
    if len(sigma) != len(c):
        raise InvalidArgumentError("witness length mismatch")
    return sigma, c, m, t
