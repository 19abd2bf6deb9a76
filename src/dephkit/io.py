"""JSON wire format for matrices, channels and realization fixtures.

Matrices travel as {"rows", "cols", "data"} with row-major [re, im] pairs.
Channel files carry an explicit "kind" tag (kraus | jamiolkowski) plus
dimensions, and are written in Kraus form; a bare matrix file is accepted as
a fallback, as a Jamiolkowski state if ``channel_from_jamiolkowski`` accepts
it. Serialized floats use Python's shortest round-trip representation, so
written matrices re-read bit-identically.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from .channels import Channel, channel_from_jamiolkowski, channel_from_kraus
from .errors import DephkitError, DimensionError, ValidationError
from .linalg import DEFAULT_TOL, as_complex_matrix
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
    number are refused rather than truncated; so is a missing field.
    """
    value = obj.get(key) if isinstance(obj, dict) else None
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
        if bool in {type(x) for pair in data for x in pair}:  # complex() reads true as 1
            raise FileFormatError("matrix entries must be numbers, got a bool")
    except FileFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise FileFormatError(f"malformed matrix object: {exc}") from exc
    if not np.isfinite(mat).all():
        raise FileFormatError("matrix contains non-finite entries")
    return mat


def _matrices(obj, key: str) -> list[np.ndarray]:
    """Field ``key`` of obj, a list of matrix objects, as matrices."""
    try:
        return [matrix_from_obj(m) for m in obj[key]]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"{key} must be a list of matrix objects: {exc!r}") from exc


def _declared(mats, shape: tuple[int, int]) -> None:
    """Refuse a matrix whose shape is not the one the file's dimension fields declare."""
    for m in mats:
        if m.shape != shape:
            raise FileFormatError(f"a matrix has shape {m.shape}, but the file's dimension fields declare {shape}")


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


def write_channel(path, ch: Channel) -> None:
    kraus = [matrix_to_obj(k) for k in ch.kraus]
    _dump_json(path, {"kind": "kraus", "dim_in": ch.dim_in, "dim_out": ch.dim_out, "kraus": kraus})


def _channel_from_obj(obj, tol: float) -> Channel:
    if not isinstance(obj, dict):
        raise FileFormatError(f"channel file must hold a JSON object, got {type(obj).__name__}")
    kind = tag = obj.get("kind")
    if kind is None:
        # Fallback classification: a Kraus list without a tag, or a bare
        # matrix that channel_from_jamiolkowski accepts. Neither declares
        # its dimensions.
        if "kraus" in obj:
            kind = "kraus"
        elif "matrix" in obj or "data" in obj:
            kind = "jamiolkowski"
        else:
            raise FileFormatError("channel file lacks a 'kind' tag and is not classifiable")
    try:
        if kind == "kraus":
            ops = _matrices(obj, "kraus")
            if tag is not None:  # a tagged file declares its dimensions
                _declared(ops, (_dimension(obj, "dim_out"), _dimension(obj, "dim_in")))
            return channel_from_kraus(ops, tol=tol)
        if kind == "jamiolkowski":
            mat = matrix_from_obj(obj["matrix"] if "matrix" in obj else obj)
            if tag is not None:
                d = _dimension(obj, "dim")
                _declared((mat,), (d * d, d * d))
                return channel_from_jamiolkowski(mat, tol=tol)
            try:
                return channel_from_jamiolkowski(mat, tol=tol)
            except ValidationError as exc:
                raise FileFormatError(f"untagged matrix is not a Jamiolkowski state ({exc}); tag the file") from exc
    except DimensionError as exc:
        raise FileFormatError(f"{kind} channel file: {exc}") from exc
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
    if isinstance(obj, dict) and obj.get("kind") not in (None, "bipartite-kraus"):
        raise FileFormatError(f"unknown bipartite channel kind {obj['kind']!r}")
    dims = tuple(_dimension(obj, key) for key in ("sys_in", "mem_in", "sys_out", "mem_out"))
    ops = _matrices(obj, "kraus")
    _declared(ops, (dims[2] * dims[3], dims[0] * dims[1]))
    try:
        return bipartite_channel(ops, dims, tol=tol)
    except DimensionError as exc:
        raise FileFormatError(f"bipartite channel file: {exc}") from exc


def write_family_pair(path, pre, post) -> None:
    obj = {
        "d": pre.d,
        "pre": [matrix_to_obj(u) for u in pre.unitaries],
        "post": [matrix_to_obj(u) for u in post.unitaries],
    }
    _dump_json(path, obj)


def read_family_pair(path, tol: float = DEFAULT_TOL):
    obj = _load_json(path)
    pre, post, d = _matrices(obj, "pre"), _matrices(obj, "post"), _dimension(obj, "d")
    _declared(pre + post, (d * d, d * d))
    try:
        return tuple(controlled_unitary_family(us, tol=tol) for us in (pre, post))
    except DimensionError as exc:
        raise FileFormatError(f"unitary family file: {exc}") from exc


def write_decomposition(path, dec) -> None:
    """A product certificate: its residual, and the weight and both factors of each term."""
    terms = [{"weight": t.weight, "c1": matrix_to_obj(t.c1), "c2": matrix_to_obj(t.c2)} for t in dec.terms]
    _dump_json(path, {"residual": dec.residual, "terms": terms})


def write_affine(path, aff) -> None:
    """A Bloch affine map: its distortion matrix as a matrix object and its translation vector."""
    _dump_json(path, {"lambda": matrix_to_obj(aff.lam), "t": aff.t.tolist()})


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def bundled_data_path(name: str) -> Path:
    """Path of a data file shipped with the package."""
    return Path(__file__).parent / "data" / name
