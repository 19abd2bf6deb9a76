"""JSON wire format for matrices, channels and realization fixtures.

Matrices travel as {"rows", "cols", "data"} with row-major [re, im] pairs.
Channel files carry an explicit "kind" tag (kraus | jamiolkowski) plus
dimensions; a bare matrix file is accepted as a fallback and classified by
shape and a PSD/trace audit. Serialized floats use Python's shortest
round-trip representation, so written matrices re-read bit-identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .channels import Channel, channel_from_jamiolkowski, channel_from_kraus
from .errors import DephkitError
from .linalg import DEFAULT_TOL, as_complex_matrix, measure, violation
from .superchannels import BipartiteChannel, bipartite_channel, controlled_unitary_family


class FileFormatError(DephkitError):
    """Input file could not be parsed into the expected structure."""


def matrix_to_obj(mat: np.ndarray) -> dict:
    mat = as_complex_matrix(mat)
    rows, cols = mat.shape
    flat = mat.ravel()
    return {
        "rows": rows,
        "cols": cols,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def _dimension(obj, key: str) -> int:
    """Field ``key`` of obj as a nonnegative integer; an integral float such as 4.0 reads as 4.

    A bool, a non-number, a fractional or non-finite number and a negative
    number are refused rather than truncated.
    """
    value = obj[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int or value < 0:
        raise FileFormatError(f"{key} must be a nonnegative integer, got {value!r}")
    return value


def matrix_from_obj(obj) -> np.ndarray:
    try:
        rows, cols = _dimension(obj, "rows"), _dimension(obj, "cols")
        data = obj["data"]
        if len(data) != rows * cols:
            raise FileFormatError(f"data length {len(data)} != rows*cols = {rows * cols}")
        mat = np.array([complex(re, im) for re, im in data]).reshape(rows, cols)
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed matrix object: {exc}") from exc
    if not np.isfinite(mat).all():
        raise FileFormatError("matrix contains non-finite entries")
    return mat


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FileFormatError(f"cannot parse {path}: {exc}") from exc


def _dump_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1)
        fh.write("\n")


def write_matrix(path, mat: np.ndarray) -> None:
    _dump_json(path, matrix_to_obj(mat))


def read_matrix(path) -> np.ndarray:
    return matrix_from_obj(_load_json(path))


def write_channel(path, ch: Channel, kind: str = "kraus") -> None:
    if kind == "kraus":
        obj = {
            "kind": "kraus",
            "dim_in": ch.dim_in,
            "dim_out": ch.dim_out,
            "kraus": [matrix_to_obj(k) for k in ch.kraus],
        }
    elif kind == "jamiolkowski":
        from .channels import jamiolkowski

        obj = {"kind": "jamiolkowski", "dim": ch.dim_in, "matrix": matrix_to_obj(jamiolkowski(ch))}
    else:
        raise ValueError(f"unknown channel kind {kind!r}")
    _dump_json(path, obj)


def _channel_from_obj(obj, tol: float) -> Channel:
    if not isinstance(obj, dict):
        raise FileFormatError(f"channel file must hold a JSON object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if kind is None:
        # Fallback classification: a Kraus list without a tag, or a bare
        # matrix that passes a Jamiolkowski PSD/trace audit.
        if "kraus" in obj:
            kind = "kraus"
        elif "matrix" in obj or "data" in obj:
            kind = "jamiolkowski"
        else:
            raise FileFormatError("channel file lacks a 'kind' tag and is not classifiable")
    if kind == "kraus":
        try:
            ops = [matrix_from_obj(k) for k in obj["kraus"]]
        except (KeyError, TypeError) as exc:
            raise FileFormatError(f"malformed kraus channel: {exc}") from exc
        return channel_from_kraus(ops, tol=tol)
    if kind == "jamiolkowski":
        mat = matrix_from_obj(obj["matrix"] if "matrix" in obj else obj)
        if obj.get("kind") is None:
            exc = violation(measure(mat, ("hermitian", "psd", "jamiolkowski-tp"), tol), "J")
            if exc is not None:
                raise FileFormatError(f"untagged matrix failed the Jamiolkowski PSD/trace audit ({exc}); tag the file")
        return channel_from_jamiolkowski(mat, tol=tol)
    raise FileFormatError(f"unknown channel kind {kind!r}")


def read_channel(path, tol: float = DEFAULT_TOL) -> Channel:
    return _channel_from_obj(_load_json(path), tol)


def write_bipartite(path, bc: BipartiteChannel) -> None:
    obj = {
        "kind": "bipartite-kraus",
        "sys_in": bc.sys_in,
        "mem_in": bc.mem_in,
        "sys_out": bc.sys_out,
        "mem_out": bc.mem_out,
        "kraus": [matrix_to_obj(k) for k in bc.inner.kraus],
    }
    _dump_json(path, obj)


def read_bipartite(path, tol: float = DEFAULT_TOL) -> BipartiteChannel:
    obj = _load_json(path)
    try:
        dims = tuple(_dimension(obj, key) for key in ("sys_in", "mem_in", "sys_out", "mem_out"))
        ops = [matrix_from_obj(k) for k in obj["kraus"]]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"malformed bipartite channel file: {exc}") from exc
    return bipartite_channel(ops, dims, tol=tol)


def write_family_pair(path, pre, post) -> None:
    obj = {
        "d": pre.d,
        "pre": [matrix_to_obj(u) for u in pre.unitaries],
        "post": [matrix_to_obj(u) for u in post.unitaries],
    }
    _dump_json(path, obj)


def read_family_pair(path, tol: float = DEFAULT_TOL):
    obj = _load_json(path)
    try:
        pre = controlled_unitary_family([matrix_from_obj(u) for u in obj["pre"]], tol=tol)
        post = controlled_unitary_family([matrix_from_obj(u) for u in obj["post"]], tol=tol)
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"malformed unitary family file: {exc}") from exc
    return pre, post


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).parent / "data" / name
